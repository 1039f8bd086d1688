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
tolerance).  Each relation is written once, as ``Bound.sides``: on one
triple's floats for ``evaluate_all``, and on (R,) arrays of one pair class
for ``evaluate_rows``, which gives the same floats.  Its hypothesis on the
pair (disjoint support, orthogonal branches, or none) is written once too,
as ``Bound.hypothesis``: ``_sides_and_slack`` checks it before the sides,
through ``_meets``, on a pair (raising WrongPairClassError) or on rows
(masking them out).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional

import numpy as np

from .entropy import binary_entropy, binary_entropy_rows, pure_state_coherence, row_coherences
from .errors import CoherenceLabError, WrongPairClassError, ZeroVectorError
from .linalg import StateVector, moduli, row_vdot
from .superpose import (
    PairClass,
    PairKind,
    SuperposedState,
    SuperpositionCoefficients,
    classify_pair,
    disjoint_rows,
    superpose,
    superpose_rows,
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
        return asdict(self)


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


class _cached:
    """``functools.cached_property`` minus the lock it takes on first access
    before Python 3.12 (a context is never shared between threads); the value
    stored in the instance then shadows this non-data descriptor."""

    def __init__(self, func):
        self.func, self.name = func, func.__name__

    def __get__(self, ctx, owner=None):
        if ctx is None:
            return self
        value = ctx.__dict__[self.name] = self.func(ctx)
        return value


def _meets(hypothesis: PairKind, disjoint, overlap):
    """Whether pairs meet ``hypothesis`` (``DISJOINT_SUPPORT`` or
    ``ORTHOGONAL_SAME_SPACE``), given whether their supports are disjoint and
    <phi|psi>: as a bool and a complex, or as (R,) arrays."""
    if hypothesis is PairKind.DISJOINT_SUPPORT:
        return disjoint
    return ~(moduli(overlap) > TOLERANCES.overlap)


class _PairContext:
    """Shared quantities for evaluating several bounds on one input triple.

    ``entropy`` and ``require`` (a bound's hypothesis) are the only steps of
    the bound formulas that are not plain arithmetic; ``_ClassRows`` runs them
    on arrays.  ``row_slacks`` seeds a context with one row's quantities.
    """

    def __init__(
        self,
        coeffs: SuperpositionCoefficients,
        phi: StateVector,
        psi: StateVector,
    ):
        self.coeffs = coeffs
        self.phi = phi
        self.psi = psi

    @_cached
    def pair_class(self) -> PairClass:
        return classify_pair(self.phi, self.psi)

    @_cached
    def superposed(self) -> SuperposedState:
        return superpose(self.coeffs, self.phi, self.psi)

    @_cached
    def s(self) -> float:
        return self.superposed.s

    @_cached
    def alpha_sq(self) -> float:
        return self.coeffs.alpha_sq

    @_cached
    def beta_sq(self) -> float:
        return self.coeffs.beta_sq

    @_cached
    def coherence_phi(self) -> float:
        return pure_state_coherence(self.phi)

    @_cached
    def coherence_psi(self) -> float:
        return pure_state_coherence(self.psi)

    @_cached
    def coherence_t1(self) -> float:
        if self.superposed.normalized is None:
            raise ZeroVectorError("superposition norm is numerically zero")
        return pure_state_coherence(self.superposed.normalized)

    @_cached
    def weighted_mix(self) -> float:
        return (
            self.alpha_sq * self.coherence_phi
            + self.beta_sq * self.coherence_psi
            + self.entropy(self.alpha_sq)
        )

    def entropy(self, x: float) -> float:
        """``binary_entropy``, which raises outside [0, 1]."""
        return binary_entropy(x)

    def require(self, hypothesis: PairKind) -> None:
        """Raise WrongPairClassError unless the pair meets ``hypothesis``."""
        tag, overlap = self.pair_class.tag, self.pair_class.overlap
        if _meets(hypothesis, tag is PairKind.DISJOINT_SUPPORT, overlap):
            return
        if hypothesis is PairKind.DISJOINT_SUPPORT:
            raise WrongPairClassError(
                f"pair classified as {tag.value}; disjoint support required"
            )
        raise WrongPairClassError(
            f"|<phi|psi>| = {abs(overlap):.3e} exceeds the "
            f"orthogonality threshold {TOLERANCES.overlap:g}"
        )

    @_cached
    def digest(self) -> str:
        return inputs_digest(self.coeffs, self.phi, self.psi)


def _t1_sides(ctx: _PairContext) -> tuple[float, float]:
    return ctx.coherence_t1, ctx.weighted_mix


def _gain_sides(ctx: _PairContext) -> tuple[float, float]:
    gain = ctx.coherence_t1 - ctx.alpha_sq * ctx.coherence_phi - ctx.beta_sq * ctx.coherence_psi
    return gain, 1.0


def _t2_sides(ctx: _PairContext) -> tuple[float, float]:
    return ctx.coherence_t1, 2.0 * ctx.weighted_mix


# s * s, not s ** 2: numpy squares arrays by multiplying, and pow rounds differently.
def _t3_sides(ctx: _PairContext) -> tuple[float, float]:
    return ctx.s * ctx.s * ctx.coherence_t1, 2.0 * ctx.weighted_mix


def _t4_sides(ctx: _PairContext, w_own: float, c_own: float,
              w_other: float, c_other: float) -> tuple[float, float]:
    s_sq = ctx.s * ctx.s
    lhs = s_sq * ctx.coherence_t1
    rhs = (
        0.5 * w_own * c_own
        - w_other * c_other
        - (s_sq + w_other) * ctx.entropy(w_other / (s_sq + w_other))
    )
    return lhs, rhs


def _t4a_sides(ctx: _PairContext) -> tuple[float, float]:
    return _t4_sides(ctx, ctx.alpha_sq, ctx.coherence_phi, ctx.beta_sq, ctx.coherence_psi)


def _t4b_sides(ctx: _PairContext) -> tuple[float, float]:
    return _t4_sides(ctx, ctx.beta_sq, ctx.coherence_psi, ctx.alpha_sq, ctx.coherence_phi)


@dataclass(frozen=True)
class Bound:
    """Everything the package knows about one relation.

    ``hypothesis`` is what a pair must meet: None (any pair),
    ``DISJOINT_SUPPORT``, or ``ORTHOGONAL_SAME_SPACE``, which means
    |<phi|psi>| <= ``TOLERANCES.overlap``.  ``default_kind`` is the kind
    ``sweep`` and ``saturate`` sample when none is given, ``direction`` is
    ``"equality"``, ``"upper"`` or ``"lower"``, and ``sides`` computes
    (lhs, rhs) of a pair that meets the hypothesis; ``_sides_and_slack``
    raises WrongPairClassError on one that does not.
    """

    hypothesis: Optional[PairKind]
    default_kind: PairKind
    direction: str
    sides: Callable[[_PairContext], tuple[float, float]]

    @property
    def kinds(self) -> frozenset[PairKind]:
        """The pair kinds a search may sample: every kind without a
        hypothesis, else disjoint pairs (whose overlap is 0 as sampled) and
        the hypothesis's own kind."""
        if self.hypothesis is None:
            return frozenset(PairKind)
        return frozenset({PairKind.DISJOINT_SUPPORT, self.hypothesis})


BOUNDS: dict[str, Bound] = {
    T1_EQUALITY: Bound(
        PairKind.DISJOINT_SUPPORT, PairKind.DISJOINT_SUPPORT, "equality", _t1_sides
    ),
    GAIN_LE_1: Bound(PairKind.DISJOINT_SUPPORT, PairKind.DISJOINT_SUPPORT, "upper", _gain_sides),
    T2_UPPER: Bound(
        PairKind.ORTHOGONAL_SAME_SPACE, PairKind.ORTHOGONAL_SAME_SPACE, "upper", _t2_sides
    ),
    T3_UPPER: Bound(None, PairKind.NON_ORTHOGONAL, "upper", _t3_sides),
    T4_LOWER_A: Bound(None, PairKind.ARBITRARY, "lower", _t4a_sides),
    T4_LOWER_B: Bound(None, PairKind.ARBITRARY, "lower", _t4b_sides),
}

ALL_BOUND_IDS = tuple(BOUNDS)


def _sides_and_slack(ctx: _PairContext, bound: Bound) -> tuple[float, float, float]:
    if bound.hypothesis is not None:
        ctx.require(bound.hypothesis)
    lhs, rhs = bound.sides(ctx)
    if bound.direction == "equality":
        return lhs, rhs, abs(lhs - rhs)
    return lhs, rhs, (rhs - lhs if bound.direction == "upper" else lhs - rhs)


def _satisfied(bound: Bound, slack, tolerance: float):
    return slack <= tolerance if bound.direction == "equality" else slack >= -tolerance


def _report(ctx: _PairContext, bound_id: str, tolerance: float) -> BoundReport:
    bound = BOUNDS[bound_id]
    lhs, rhs, slack = _sides_and_slack(ctx, bound)
    satisfied = _satisfied(bound, slack, tolerance)
    return BoundReport(bound_id, lhs, rhs, slack, satisfied, tolerance, ctx.digest)


def bound_slack(
    bound_id: str,
    coeffs: SuperpositionCoefficients,
    phi: StateVector,
    psi: StateVector,
) -> float:
    """The slack ``evaluate_bound`` reports, without building the report.

    Runs the same checks (pair class, zero superposition norm) and returns
    the same float; no verdict and no ``inputs_digest`` is computed, which is
    what a search that reads only the slack needs.
    """
    return _sides_and_slack(_PairContext(coeffs, phi, psi), BOUNDS[bound_id])[2]


def row_slacks(
    bound_id: str,
    alpha: np.ndarray,
    beta: np.ndarray,
    phi: np.ndarray,
    psi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``bound_slack`` of each row triple: (slacks, ok).

    ``alpha``/``beta`` are (R,) coefficients and ``phi``/``psi`` (R, d) arrays
    of rows that ``SuperpositionCoefficients`` and ``StateVector`` accept.
    Where ``ok`` holds, slacks[i] is ``bound_slack`` on row i bit for bit.
    Elsewhere the row's superposition is degenerate, a coherence is not one
    ``entropy.row_coherences`` vouches for (a zero probability inside a
    support), the pair does not meet the bound's hypothesis, or the sides
    raised; then ``bound_slack`` on that row gives the value or raises the
    exception.  The hypothesis is checked on arrays, before the rows run one
    at a time through ``Bound.sides`` on a ``_PairContext`` seeded with their
    quantities.
    """
    bound = BOUNDS[bound_id]
    s, t1, ok = superpose_rows(alpha, beta, phi, psi)
    coherence, vouched = row_coherences(
        np.concatenate((phi[:, None], psi[:, None], t1[:, None]), axis=1)
    )
    ok &= vouched
    if bound.hypothesis is not None:
        ok &= _meets(bound.hypothesis, disjoint_rows(phi, psi), row_vdot(phi, psi))
        bound = replace(bound, hypothesis=None)  # met by every row ok keeps
    slacks = []
    for i, (good, a, b, s_i, (c_phi, c_psi, c_t1)) in enumerate(
        zip(ok.tolist(), alpha.tolist(), beta.tolist(), s.tolist(), coherence.tolist())
    ):
        if not good:
            slacks.append(np.nan)
            continue
        # The weights as SuperpositionCoefficients computes them: on a few
        # rows, Python floats cost less than coefficient_weights.
        ctx = object.__new__(_PairContext)
        ctx.__dict__.update(
            alpha_sq=abs(a) * abs(a), beta_sq=abs(b) * abs(b), s=s_i,
            coherence_phi=c_phi, coherence_psi=c_psi, coherence_t1=c_t1,
        )
        try:
            slacks.append(_sides_and_slack(ctx, bound)[2])
        except CoherenceLabError:  # bound_slack raises it again, for this row alone
            slacks.append(np.nan)
            ok[i] = False
    return np.array(slacks), ok


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
_LOWER_BOUNDS = (T4_LOWER_A, T4_LOWER_B)


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
    bounds.  Every class bound reads the normalized superposition, so when
    the branches cancel (norm numerically zero) this raises
    ``ZeroVectorError``.
    """
    ctx = _PairContext(coeffs, phi, psi)
    bound_ids = _CLASS_BOUNDS[ctx.pair_class.tag] + _LOWER_BOUNDS
    return [_report(ctx, b, tolerance) for b in bound_ids]


class _ClassRows(_PairContext):
    """A ``_PairContext`` whose quantities are (R,) arrays over rows of one
    pair class.  Where the scalar context raises on a row, ``ok`` goes False."""

    def __init__(self, kind: PairKind, overlap: np.ndarray, values: dict):
        self.__dict__.update(values)
        self.kind, self.overlap = kind, overlap
        self.ok = self.s > TOLERANCES.zero_vector  # else coherence_t1 raises

    def entropy(self, x: np.ndarray) -> np.ndarray:
        value, inside = binary_entropy_rows(x)
        self.ok &= inside
        return value

    def require(self, hypothesis: PairKind) -> None:
        self.ok &= _meets(hypothesis, self.kind is PairKind.DISJOINT_SUPPORT, self.overlap)


def evaluate_rows(
    kind: PairKind,
    overlap: np.ndarray,
    values: dict[str, np.ndarray],
    tolerance: float = TOLERANCES.bound_slack,
) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """``evaluate_all`` on R input triples of pair class ``kind``, each formula
    run once on (R,) arrays: ``overlap`` holds <phi|psi> and ``values`` the
    other quantities of a context (``alpha_sq``, ``beta_sq``, ``s`` and
    ``coherence_phi``/``_psi``/``_t1``).  Returns (slacks, satisfied) per
    bound id, and ``ok``: where it holds, row i is ``evaluate_all``'s bit for
    bit; elsewhere that raises for triple i (a degenerate superposition, an
    entropy argument outside [0, 1], a disjoint pair against T2's hypothesis).
    """
    ctx = _ClassRows(kind, overlap, values)
    verdicts = {}
    for bound_id in _CLASS_BOUNDS[kind] + _LOWER_BOUNDS:
        bound = BOUNDS[bound_id]
        slack = _sides_and_slack(ctx, bound)[2]
        verdicts[bound_id] = slack, _satisfied(bound, slack, tolerance)
    return verdicts, ctx.ok
