"""Two-term superpositions, pair classification, and their exact identities.

A superposition ``alpha*|phi> + beta*|psi>`` of unit states with
``|alpha|^2 + |beta|^2 = 1`` has squared norm ``1 + 2*Re(conj(alpha)*beta*
<phi|psi>)``, so it is unit-norm exactly when the branches are orthogonal.
The sum and difference branches are tied together by two algebraic
identities that hold for every input:

* norm identity:   ||a*phi + b*psi||^2 + ||a*phi - b*psi||^2 = 2
* mixing identity: the equal mixture of the two dephased branches equals the
  ``|alpha|^2 / |beta|^2`` mixture of the dephased inputs, componentwise.

Both are exposed as residual computations so they can be swept as property
checks.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, ZeroVectorError
from .linalg import StateVector, moduli, norm, normalize_rows, row_vdot, scaled_state
from .tolerances import TOLERANCES


class PairKind(enum.Enum):
    """How two states relate in the reference basis.

    ARBITRARY is a sampling directive only; ``classify_pair`` returns one of
    the other three.
    """

    DISJOINT_SUPPORT = "DisjointSupport"
    ORTHOGONAL_SAME_SPACE = "OrthogonalSameSpace"
    NON_ORTHOGONAL = "NonOrthogonal"
    ARBITRARY = "Arbitrary"


@dataclass(frozen=True)
class PairClass:
    tag: PairKind
    overlap: complex


@dataclass(frozen=True)
class SuperpositionCoefficients:
    """Complex pair (alpha, beta) with |alpha|^2 + |beta|^2 = 1."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        alpha = complex(self.alpha)
        beta = complex(self.beta)
        for name, value in (("alpha", alpha), ("beta", beta)):
            if not cmath.isfinite(value):
                raise ValueError(f"{name} has non-finite components: {value!r}")
        total = abs(alpha) * abs(alpha) + abs(beta) * abs(beta)
        if abs(total - 1.0) > TOLERANCES.norm:
            raise ValueError(f"|alpha|^2 + |beta|^2 = {total!r}, not 1")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    # |z| * |z|, as numpy computes it on arrays (abs(z) ** 2 is pow, which
    # rounds differently).
    @property
    def alpha_sq(self) -> float:
        return abs(self.alpha) * abs(self.alpha)

    @property
    def beta_sq(self) -> float:
        return abs(self.beta) * abs(self.beta)


def coefficient_map(theta, phase):
    """(alpha, beta) = (cos theta, sin theta * e^{i phase}) on floats or arrays.

    Trials draw their coefficients through this map and a search
    parameterizes them by it, so floats and (R,) rows give the same bits.
    """
    return np.cos(theta), np.sin(theta) * np.exp(1j * phase)


def coefficient_weights(
    alpha: np.ndarray, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``SuperpositionCoefficients`` on (R,) arrays: (alpha_sq, beta_sq, ok), the
    weights bit for bit where ``ok`` holds, and rejected by it elsewhere."""
    m_alpha, m_beta = moduli(alpha), moduli(beta)
    a, b = m_alpha * m_alpha, m_beta * m_beta
    return a, b, np.abs(a + b - 1.0) <= TOLERANCES.norm


@dataclass(frozen=True, eq=False)
class SuperposedState:
    """Raw two-term superposition with its norm and normalized form.

    ``normalized`` is None when the branches cancel (norm at or below the
    degeneracy threshold); callers that need the normalized state decide
    whether that is an error.
    """

    raw: np.ndarray
    s: float
    normalized: Optional[StateVector]

    def __post_init__(self):
        raw = np.array(self.raw, dtype=np.complex128)
        raw.setflags(write=False)
        object.__setattr__(self, "raw", raw)


def _require_same_dim(phi: StateVector, psi: StateVector) -> None:
    if phi.dim != psi.dim:
        raise DimensionMismatchError(f"dimensions differ: {phi.dim} vs {psi.dim}")


def superpose(
    coeffs: SuperpositionCoefficients, phi: StateVector, psi: StateVector
) -> SuperposedState:
    """Form alpha*|phi> + beta*|psi> and record its norm."""
    _require_same_dim(phi, psi)
    raw = coeffs.alpha * phi.amps + coeffs.beta * psi.amps
    s = norm(raw)
    # raw is finite (unit states, finite coefficients): seal raw / s directly.
    normalized = scaled_state(raw, s) if s > TOLERANCES.zero_vector else None
    return SuperposedState(raw=raw, s=s, normalized=normalized)


def superpose_rows(
    alpha: np.ndarray, beta: np.ndarray, phi: np.ndarray, psi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``superpose`` on rows: (s, normalized rows, ok).

    ``alpha``/``beta`` are (R,) coefficients, ``phi``/``psi`` (R, d) unit rows.
    Where ``ok`` holds, s[i] and row i are ``superpose``'s ``s`` and
    ``normalized.amps`` bit for bit; elsewhere ``normalized`` is None.
    """
    normalized, s, ok = normalize_rows(alpha[:, None] * phi + beta[:, None] * psi)
    return s, normalized, ok


def t_states(
    coeffs: SuperpositionCoefficients, phi: StateVector, psi: StateVector
) -> tuple[StateVector, StateVector]:
    """Normalized sum and difference branches (T1, T2).

    T1 = (alpha*phi + beta*psi)/||.||, T2 = (alpha*phi - beta*psi)/||.||.
    Raises ZeroVectorError naming the branch that degenerated.
    """
    _require_same_dim(phi, psi)
    raw_plus = coeffs.alpha * phi.amps + coeffs.beta * psi.amps
    raw_minus = coeffs.alpha * phi.amps - coeffs.beta * psi.amps
    s_plus = norm(raw_plus)
    if s_plus <= TOLERANCES.zero_vector:
        raise ZeroVectorError("sum branch (T1) of the superposition is degenerate")
    s_minus = norm(raw_minus)
    if s_minus <= TOLERANCES.zero_vector:
        raise ZeroVectorError("difference branch (T2) of the superposition is degenerate")
    return scaled_state(raw_plus, s_plus), scaled_state(raw_minus, s_minus)


def classify_pair(phi: StateVector, psi: StateVector) -> PairClass:
    """Classify a state pair for bound routing.

    DisjointSupport (no shared basis index, checked amplitude-wise) takes
    precedence over OrthogonalSameSpace (vanishing overlap); everything else
    is NonOrthogonal.
    """
    _require_same_dim(phi, psi)
    return classify_rows(phi.amps[None], psi.amps[None])[0]


def classify_rows(phi: np.ndarray, psi: np.ndarray) -> list[PairClass]:
    """``classify_pair`` of each pair of rows of two (R, d) unit arrays, bit for bit."""
    overlaps = row_vdot(phi, psi).tolist()
    shared = np.minimum(np.abs(phi), np.abs(psi)).max(axis=1).tolist()
    return [PairClass(tag=_pair_tag(s, o), overlap=o) for s, o in zip(shared, overlaps)]


def class_masks(
    phi: np.ndarray, psi: np.ndarray
) -> tuple[dict[PairKind, np.ndarray], np.ndarray]:
    """``classify_pair`` of each pair of rows of two (R, d) unit arrays as
    (the mask of the rows of each class, the overlaps), bit for bit: for many
    rows, where one ``PairClass`` per row would cost more than the work."""
    overlaps = row_vdot(phi, psi)
    disjoint = np.minimum(np.abs(phi), np.abs(psi)).max(axis=1) <= TOLERANCES.support
    orthogonal = moduli(overlaps) <= TOLERANCES.overlap
    classes = {
        PairKind.DISJOINT_SUPPORT: disjoint,
        PairKind.ORTHOGONAL_SAME_SPACE: orthogonal & ~disjoint,
        PairKind.NON_ORTHOGONAL: ~(disjoint | orthogonal),
    }
    return classes, overlaps


def _pair_tag(shared: float, overlap: complex) -> PairKind:
    if shared <= TOLERANCES.support:
        return PairKind.DISJOINT_SUPPORT
    if abs(overlap) <= TOLERANCES.overlap:
        return PairKind.ORTHOGONAL_SAME_SPACE
    return PairKind.NON_ORTHOGONAL


def mixing_identity_residual(
    coeffs: SuperpositionCoefficients, phi: StateVector, psi: StateVector
) -> float:
    """Max-abs componentwise residual of the dephased mixing identity.

    (1/2)|a*phi + b*psi|_i^2 + (1/2)|a*phi - b*psi|_i^2 must equal
    |a|^2 |phi_i|^2 + |b|^2 |psi_i|^2 for every index i.  Stated with the
    raw (unnormalized) branches, this covers the normalized form too: the
    branch norms are exactly the weights the normalized version uses.
    """
    _require_same_dim(phi, psi)
    raw_plus = coeffs.alpha * phi.amps + coeffs.beta * psi.amps
    raw_minus = coeffs.alpha * phi.amps - coeffs.beta * psi.amps
    lhs = 0.5 * np.abs(raw_plus) ** 2 + 0.5 * np.abs(raw_minus) ** 2
    rhs = coeffs.alpha_sq * np.abs(phi.amps) ** 2 + coeffs.beta_sq * np.abs(psi.amps) ** 2
    return float(np.max(np.abs(lhs - rhs)))


def norm_identity_residual(
    coeffs: SuperpositionCoefficients, phi: StateVector, psi: StateVector
) -> float:
    """|s_plus^2 + s_minus^2 - 2| for the sum and difference branches."""
    _require_same_dim(phi, psi)
    raw_plus = coeffs.alpha * phi.amps + coeffs.beta * psi.amps
    raw_minus = coeffs.alpha * phi.amps - coeffs.beta * psi.amps
    s_plus_sq = norm(raw_plus) ** 2
    s_minus_sq = norm(raw_minus) ** 2
    return abs(s_plus_sq + s_minus_sq - 2.0)
