"""Entropy functionals and the relative entropy of coherence.

All entropies are in bits (logarithm base 2); with that convention the binary
entropy peaks at exactly 1, which is what makes the dimension-independent
coherence-gain ceiling come out as 1.  The 0*log(0) = 0 convention is applied
pointwise at p = 0 exactly: log2 of a positive double, subnormals included,
is finite, so every p > 0 contributes its term, and a state's p = 0 is a
-0.0 term, which leaves any sum as it is.  The Shannon entropy
H(p) = -sum_i p_i log2 p_i has no public spelling of its own:
``pure_state_coherence`` is H of a state's squared amplitudes, and
``von_neumann_entropy`` H of a spectrum.

No entropy is negative: a validated input may hold a probability above 1 (its
norm or trace is checked to ``TOLERANCES.norm``), so each p is clipped to 1 at
its logarithm, and each sum is written ``0.0 - sum`` so an all-zero sum is
+0.0.  The one clamp left is ``relative_entropy_coherence``'s, a difference of
two entropies that can round below 0.

Probabilities are taken as given, so a state of norm n, accepted within
``TOLERANCES.norm`` of 1, has p = (1 + eps) q, where eps = n^2 - 1 and q is
the distribution of the state scaled to unit norm.  Then
H(p) = (1 + eps)(H(q) - log2(1 + eps)) = H(q) + eps (H(q) - log2 e) + O(eps^2).
Where eps > 0 and a p exceeds 1, the clip turns that p's term, which lies in
[-eps log2 e, 0], into 0.  Such a state's coherence is therefore within
|eps| max(log2 e, log2 d) + O(eps^2) of the unit state's, beyond round-off:
at the edge of validation, up to 2.9e-10 at d = 2 and 2e-10 log2 d from
d = 3 on.  [0.6, 0.8] at norm 1 + 0.99e-10 is off by -9.9e-11 and [1, 1e-5]
by -1.44e-10.  A state built with ``linalg.normalize`` has round-off only.

Every logarithm is ``np.log2``, on a scalar as on an array (``math.log2``
rounds differently), and this is the only module that takes one.  The row
forms ``row_coherences`` and ``binary_entropy_rows`` therefore give the scalar
functions' floats bit for bit: the first is the same function as
``pure_state_coherence`` over the last axis, and the second is
``binary_entropy`` on each entry of its domain, the only entries its callers
pass.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConsistencyError, DomainError
from .linalg import DensityMatrix, StateVector
from .tolerances import TOLERANCES


def _clamped_nonnegative(value: float, slop: float, what: str) -> float:
    """Clamp tiny negative round-off to 0; fail loudly on anything worse."""
    if value < -slop:
        raise ConsistencyError(f"{what} = {value!r} is below the -{slop:g} slop window")
    # value + 0.0 folds -0.0 into +0.0.
    return 0.0 if value < 0.0 else value + 0.0


def _entropy_of_probs(probs: np.ndarray, cut: float = 0.0) -> float:
    p = np.minimum(probs[probs > cut], 1.0)
    return float(0.0 - (p * np.log2(p)).sum())


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x) on [0, 1].

    Symmetric about 1/2, where it attains its maximum value 1.  Arguments
    within ``TOLERANCES.norm`` outside [0, 1], the window in which a weight
    |alpha|^2 passes validation, are clipped to it.
    """
    x = float(x)
    if not math.isfinite(x) or x < -TOLERANCES.norm or x > 1.0 + TOLERANCES.norm:
        raise DomainError(f"binary entropy argument {x!r} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    value = 0.0
    for p in (x, 1.0 - x):
        if p > 0.0:
            value -= p * float(np.log2(p))
    return value


def binary_entropy_rows(x: np.ndarray) -> np.ndarray:
    """``binary_entropy`` of each entry of a float array, bit for bit where
    ``binary_entropy`` does not raise; elsewhere the value means nothing."""
    x = np.minimum(np.maximum(x, 0.0), 1.0)
    value = 0.0
    for p in (x, 1.0 - x):
        # At p = 0 the term is 0 * log2(1) = 0.0, and subtracting 0.0 leaves
        # any value as it is, as the scalar function skips the term.
        value = value - p * np.log2(np.where(p > 0.0, p, 1.0))
    return value


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho): Shannon entropy of the eigenvalue spectrum, in bits.

    Eigenvalues at or below d * eps * lambda_max, the eigensolver's own error,
    are left out; -lambda log2 lambda turns each into ~5e-15 bits of noise.
    """
    eigs = rho.eigenvalues()  # descending
    return _entropy_of_probs(eigs, eigs.size * 2.0**-52 * eigs[0])


def relative_entropy_coherence(rho: DensityMatrix) -> float:
    """C(rho) = S(rho_diag) - S(rho), the relative entropy of coherence.

    Non-negative for every valid density matrix; values inside the
    ``coherence_slop`` round-off window are clamped to 0.
    """
    s_diag = _entropy_of_probs(rho.matrix.diagonal().real)
    s_full = von_neumann_entropy(rho)
    return _clamped_nonnegative(
        s_diag - s_full, TOLERANCES.coherence_slop, "relative entropy of coherence"
    )


def row_coherences(amps: np.ndarray) -> np.ndarray:
    """H(|amps|^2) over the last axis: ``pure_state_coherence`` of each row
    state, each row's terms summed alone.  A p = 0 is raised to the least
    positive double, 2^-1074, at its logarithm, so its term is 0 * -1074 =
    -0.0; every p > 0 is at least that double and keeps its own term.  A row
    of NaN amplitudes (one whose norm a caller rejects) reads NaN and leaves
    every other row's value as it is."""
    p = np.minimum(np.abs(amps) ** 2, 1.0)
    terms = np.maximum(p, 5e-324)
    np.log2(terms, out=terms)  # in place: at most two arrays of the input's size
    terms *= p
    return 0.0 - np.add.reduce(terms, axis=-1)


def pure_state_coherence(state: StateVector) -> float:
    """Coherence of a pure state: C(psi) = H(|psi_i|^2), the entropy in bits of
    its squared amplitudes.

    Equals ``relative_entropy_coherence`` on the corresponding projector, but
    needs no eigensolver.
    """
    return float(row_coherences(state.amps))
