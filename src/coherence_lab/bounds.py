"""The four superposition-coherence relations as checkable reports.

Writing C(.) for the relative entropy of coherence of a pure state,
a = |alpha|^2, b = |beta|^2, h for the binary entropy, and s for the norm of
the raw superposition, the evaluated relations are:

* T1_EQUALITY  (disjoint support, s = 1):
      C(omega) = a*C(phi) + b*C(psi) + h(a)
* GAIN_LE_1    (disjoint support):
      C(omega) - a*C(phi) - b*C(psi) <= 1
* T2_UPPER     (orthogonal branches, s = 1):
      C(omega) <= 2*[a*C(phi) + b*C(psi) + h(a)]
* T3_UPPER     (any non-degenerate superposition):
      s^2*C(T1) <= 2*[a*C(phi) + b*C(psi) + h(a)]
* T4_LOWER_A/B (any non-degenerate superposition):
      s^2*C(T1) >= (a/2)*C(phi) - b*C(psi) - (s^2+b)*h(b/(s^2+b))
      s^2*C(T1) >= (b/2)*C(psi) - a*C(phi) - (s^2+a)*h(a/(s^2+a))

Slack sign conventions: upper bounds report rhs - lhs, lower bounds report
lhs - rhs, and the equality reports the absolute residual |lhs - rhs|.  A
report is satisfied when slack >= -tolerance (equality: residual <=
tolerance).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .entropy import binary_entropy, pure_state_coherence
from .errors import WrongPairClassError, ZeroVectorError
from .linalg import StateVector
from .superpose import (
    PairClass,
    PairKind,
    SuperposedState,
    SuperpositionCoefficients,
    classify_pair,
    superpose,
)
from .tolerances import TOLERANCES

T1_EQUALITY = "T1_EQUALITY"
GAIN_LE_1 = "GAIN_LE_1"
T2_UPPER = "T2_UPPER"
T3_UPPER = "T3_UPPER"
T4_LOWER_A = "T4_LOWER_A"
T4_LOWER_B = "T4_LOWER_B"

@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation: sides, signed slack, and verdict."""

    bound_id: str
    lhs: float
    rhs: float
    slack: float
    satisfied: bool
    tolerance: float
    inputs_digest: str

    def to_dict(self) -> dict:
        return {
            "bound_id": self.bound_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "satisfied": self.satisfied,
            "tolerance": self.tolerance,
            "inputs_digest": self.inputs_digest,
        }


def inputs_digest(
    coeffs: SuperpositionCoefficients, phi: StateVector, psi: StateVector
) -> str:
    """Stable hex digest of an input triple (little-endian complex128 bytes)."""
    payload = np.concatenate(
        [np.array([coeffs.alpha, coeffs.beta]), phi.amps, psi.amps]
    ).astype("<c16")
    digest = hashlib.sha256()
    digest.update(b"coherence-lab/1:")
    digest.update(struct.pack("<I", phi.dim))
    digest.update(payload.tobytes())
    return digest.hexdigest()[:16]


class _PairContext:
    """Shared quantities for evaluating several bounds on one input triple."""

    def __init__(
        self,
        coeffs: SuperpositionCoefficients,
        phi: StateVector,
        psi: StateVector,
    ):
        self.coeffs = coeffs
        self.phi = phi
        self.psi = psi

    @cached_property
    def pair_class(self) -> PairClass:
        return classify_pair(self.phi, self.psi)

    @cached_property
    def superposed(self) -> SuperposedState:
        return superpose(self.coeffs, self.phi, self.psi)

    @cached_property
    def coherence_phi(self) -> float:
        return pure_state_coherence(self.phi)

    @cached_property
    def coherence_psi(self) -> float:
        return pure_state_coherence(self.psi)

    @cached_property
    def coherence_t1(self) -> float:
        if self.superposed.normalized is None:
            raise ZeroVectorError("superposition norm is numerically zero")
        return pure_state_coherence(self.superposed.normalized)

    @cached_property
    def weighted_mix(self) -> float:
        c = self.coeffs
        return (
            c.alpha_sq * self.coherence_phi
            + c.beta_sq * self.coherence_psi
            + binary_entropy(c.alpha_sq)
        )

    @cached_property
    def digest(self) -> str:
        return inputs_digest(self.coeffs, self.phi, self.psi)


def _require_disjoint(ctx: _PairContext) -> None:
    if ctx.pair_class.tag is not PairKind.DISJOINT_SUPPORT:
        raise WrongPairClassError(
            f"pair classified as {ctx.pair_class.tag.value}; disjoint support required"
        )


def _t1_sides(ctx: _PairContext) -> tuple[float, float]:
    _require_disjoint(ctx)
    return ctx.coherence_t1, ctx.weighted_mix


def _gain_sides(ctx: _PairContext) -> tuple[float, float]:
    _require_disjoint(ctx)
    c = ctx.coeffs
    gain = ctx.coherence_t1 - c.alpha_sq * ctx.coherence_phi - c.beta_sq * ctx.coherence_psi
    return gain, 1.0


def _t2_sides(ctx: _PairContext) -> tuple[float, float]:
    if abs(ctx.pair_class.overlap) > TOLERANCES.overlap:
        raise WrongPairClassError(
            f"|<phi|psi>| = {abs(ctx.pair_class.overlap):.3e} exceeds the "
            f"orthogonality threshold {TOLERANCES.overlap:g}"
        )
    return ctx.coherence_t1, 2.0 * ctx.weighted_mix


def _t3_sides(ctx: _PairContext) -> tuple[float, float]:
    return ctx.superposed.s ** 2 * ctx.coherence_t1, 2.0 * ctx.weighted_mix


def _t4_sides(ctx: _PairContext, w_own: float, c_own: float,
              w_other: float, c_other: float) -> tuple[float, float]:
    s_sq = ctx.superposed.s ** 2
    lhs = s_sq * ctx.coherence_t1
    rhs = (
        0.5 * w_own * c_own
        - w_other * c_other
        - (s_sq + w_other) * binary_entropy(w_other / (s_sq + w_other))
    )
    return lhs, rhs


def _t4a_sides(ctx: _PairContext) -> tuple[float, float]:
    c = ctx.coeffs
    return _t4_sides(ctx, c.alpha_sq, ctx.coherence_phi, c.beta_sq, ctx.coherence_psi)


def _t4b_sides(ctx: _PairContext) -> tuple[float, float]:
    c = ctx.coeffs
    return _t4_sides(ctx, c.beta_sq, ctx.coherence_psi, c.alpha_sq, ctx.coherence_phi)


@dataclass(frozen=True)
class Bound:
    """Everything the package knows about one relation.

    ``kinds`` are the pair kinds a search may sample, ``default_kind`` is the
    kind ``sweep`` and ``saturate`` sample when none is given, ``direction``
    is ``"equality"``, ``"upper"`` or ``"lower"``, and ``sides`` computes
    (lhs, rhs), raising WrongPairClassError outside the hypothesis.
    """

    kinds: frozenset[PairKind]
    default_kind: PairKind
    direction: str
    sides: Callable[[_PairContext], tuple[float, float]]


_DISJOINT = frozenset({PairKind.DISJOINT_SUPPORT})

BOUNDS: dict[str, Bound] = {
    T1_EQUALITY: Bound(_DISJOINT, PairKind.DISJOINT_SUPPORT, "equality", _t1_sides),
    GAIN_LE_1: Bound(_DISJOINT, PairKind.DISJOINT_SUPPORT, "upper", _gain_sides),
    T2_UPPER: Bound(
        _DISJOINT | {PairKind.ORTHOGONAL_SAME_SPACE},
        PairKind.ORTHOGONAL_SAME_SPACE,
        "upper",
        _t2_sides,
    ),
    T3_UPPER: Bound(frozenset(PairKind), PairKind.NON_ORTHOGONAL, "upper", _t3_sides),
    T4_LOWER_A: Bound(frozenset(PairKind), PairKind.ARBITRARY, "lower", _t4a_sides),
    T4_LOWER_B: Bound(frozenset(PairKind), PairKind.ARBITRARY, "lower", _t4b_sides),
}

ALL_BOUND_IDS = tuple(BOUNDS)


def _report(ctx: _PairContext, bound_id: str, tolerance: float) -> BoundReport:
    bound = BOUNDS[bound_id]
    lhs, rhs = bound.sides(ctx)
    if bound.direction == "equality":
        slack = abs(lhs - rhs)
        satisfied = slack <= tolerance
    else:
        slack = rhs - lhs if bound.direction == "upper" else lhs - rhs
        satisfied = slack >= -tolerance
    return BoundReport(bound_id, lhs, rhs, slack, satisfied, tolerance, ctx.digest)


def evaluate_bound(
    bound_id: str,
    coeffs: SuperpositionCoefficients,
    phi: StateVector,
    psi: StateVector,
    *,
    tolerance: float = TOLERANCES.bound_slack,
) -> BoundReport:
    """Evaluate one bound of ``BOUNDS`` on an input triple."""
    return _report(_PairContext(coeffs, phi, psi), bound_id, tolerance)


# Bounds evaluate_all applies to each pair class, ahead of the lower bounds.
# T3 reduces to T2 when s = 1, so it is applied only where T2 is not.
_CLASS_BOUNDS = {
    PairKind.DISJOINT_SUPPORT: (T1_EQUALITY, GAIN_LE_1, T2_UPPER),
    PairKind.ORTHOGONAL_SAME_SPACE: (T2_UPPER,),
    PairKind.NON_ORTHOGONAL: (T3_UPPER,),
}


def evaluate_all(
    coeffs: SuperpositionCoefficients,
    phi: StateVector,
    psi: StateVector,
    *,
    tolerance: float = TOLERANCES.bound_slack,
) -> list[BoundReport]:
    """Evaluate every bound applicable to the pair's classification.

    Disjoint support: equality, gain ceiling, orthogonal upper bound, and
    both lower-bound branches.  Orthogonal same-space: orthogonal upper bound
    plus lower bounds.  Non-orthogonal: general upper bound plus lower
    bounds.  The lower bounds are skipped when the superposition norm is
    numerically zero.
    """
    ctx = _PairContext(coeffs, phi, psi)
    reports = [_report(ctx, b, tolerance) for b in _CLASS_BOUNDS[ctx.pair_class.tag]]
    if ctx.superposed.s > TOLERANCES.zero_vector:
        reports.append(_report(ctx, T4_LOWER_A, tolerance))
        reports.append(_report(ctx, T4_LOWER_B, tolerance))
    return reports
