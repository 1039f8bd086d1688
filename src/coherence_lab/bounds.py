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
tolerance).  Each relation is written once, as ``Bound.sides``: a function
of one record of the six numbers a, b, s, C(phi), C(psi) and C(T1).  The
record holds one triple's floats for ``evaluate_all``, ``evaluate_bound``
and each row of ``row_slacks``, and (R,) arrays over all rows of a pass for
``evaluate_rows``, which gives the same floats.  ``evaluate_bound(...).slack``
is the scalar reference for one triple's slack.  Its hypothesis on the pair
(disjoint support, orthogonal branches, or none) is written once too, as
``Bound.hypothesis``, and the pair classes that meet it are ``Bound.kinds``:
``classify_pair`` calls a pair DisjointSupport only when it is also
orthogonal.  ``evaluate_bound`` raises WrongPairClassError on a pair of
another class.  ``evaluate_all`` and ``evaluate_rows`` check each bound on
the classes in ``Bound.classes``, all within ``kinds``, so they test no
hypothesis.  ``row_slacks`` tests on each row only what its draw does not
guarantee, and nothing on rows drawn disjoint; a row that fails its checks
reads NaN.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import repeat
from typing import Callable, NamedTuple, Optional

import numpy as np

from .entropy import binary_entropy, binary_entropy_rows, pure_state_coherence, row_coherences
from .errors import WrongPairClassError, ZeroVectorError
from .linalg import StateVector, normalizable, row_vdot
from .superpose import (
    PairKind,
    SuperpositionCoefficients,
    classify_pair,
    disjoint_rows,
    is_orthogonal,
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

    def to_dict(self) -> dict:
        return asdict(self)


class _Quantities(NamedTuple):
    """The six numbers the relations read: floats of one input triple, or (R,)
    arrays over rows."""

    alpha_sq: float
    beta_sq: float
    s: float
    coherence_phi: float
    coherence_psi: float
    coherence_t1: float


def _record(
    coeffs: SuperpositionCoefficients, phi: StateVector, psi: StateVector
) -> _Quantities:
    """The record of one input triple; ZeroVectorError is raised when the
    branches cancel."""
    superposed = superpose(coeffs, phi, psi)
    if superposed.normalized is None:
        raise ZeroVectorError("superposition norm is numerically zero")
    return _Quantities(
        coeffs.alpha_sq, coeffs.beta_sq, superposed.s, pure_state_coherence(phi),
        pure_state_coherence(psi), pure_state_coherence(superposed.normalized),
    )


# Each ``entropy`` below is ``binary_entropy`` on floats, which raises outside
# [0, 1], and on arrays ``binary_entropy_rows``, which marks such rows not ok.
def _weighted_mix(q: _Quantities, entropy) -> float:
    return q.alpha_sq * q.coherence_phi + q.beta_sq * q.coherence_psi + entropy(q.alpha_sq)


def _t1_sides(q: _Quantities, entropy) -> tuple[float, float]:
    return q.coherence_t1, _weighted_mix(q, entropy)


def _gain_sides(q: _Quantities, entropy) -> tuple[float, float]:
    return q.coherence_t1 - q.alpha_sq * q.coherence_phi - q.beta_sq * q.coherence_psi, 1.0


def _t2_sides(q: _Quantities, entropy) -> tuple[float, float]:
    return q.coherence_t1, 2.0 * _weighted_mix(q, entropy)


# s * s, not s ** 2: numpy squares arrays by multiplying, and pow rounds differently.
def _t3_sides(q: _Quantities, entropy) -> tuple[float, float]:
    return q.s * q.s * q.coherence_t1, 2.0 * _weighted_mix(q, entropy)


def _t4_sides(q: _Quantities, entropy, w_own: float, c_own: float,
              w_other: float, c_other: float) -> tuple[float, float]:
    s_sq = q.s * q.s
    lhs = s_sq * q.coherence_t1
    rhs = (
        0.5 * w_own * c_own
        - w_other * c_other
        - (s_sq + w_other) * entropy(w_other / (s_sq + w_other))
    )
    return lhs, rhs


def _t4a_sides(q: _Quantities, entropy) -> tuple[float, float]:
    return _t4_sides(q, entropy, q.alpha_sq, q.coherence_phi, q.beta_sq, q.coherence_psi)


def _t4b_sides(q: _Quantities, entropy) -> tuple[float, float]:
    return _t4_sides(q, entropy, q.beta_sq, q.coherence_psi, q.alpha_sq, q.coherence_phi)


@dataclass(frozen=True)
class Bound:
    """Everything the package knows about one relation.

    ``hypothesis`` is what a pair must meet: None (any pair),
    ``DISJOINT_SUPPORT``, or ``ORTHOGONAL_SAME_SPACE``, which means
    |<phi|psi>| <= ``TOLERANCES.overlap``.  ``classes`` are the pair classes
    ``evaluate_all`` and ``verify`` check it on, each one of ``kinds``,
    ``default_kind`` is the kind ``sweep`` and ``saturate`` sample when none
    is given, ``direction`` is ``"equality"``, ``"upper"`` or ``"lower"``,
    and ``sides(q, entropy)`` computes (lhs, rhs) from the record ``q`` of a
    pair that meets the hypothesis, with ``entropy`` as the binary entropy:
    floats or arrays in, the same out.
    """

    hypothesis: Optional[PairKind]
    classes: frozenset[PairKind]
    default_kind: PairKind
    direction: str
    sides: Callable[[_Quantities, Callable], tuple[float, float]]

    @property
    def kinds(self) -> frozenset[PairKind]:
        """The pair kinds that meet the hypothesis, and so the kinds a search
        may sample: every kind without a hypothesis, else the hypothesis's
        own kind and DisjointSupport, which ``classify_pair`` gives only to
        an orthogonal pair.  A pair meets the hypothesis exactly when its
        class is one of these."""
        if self.hypothesis is None:
            return frozenset(PairKind)
        return frozenset({PairKind.DISJOINT_SUPPORT, self.hypothesis})


_DISJOINT = frozenset({PairKind.DISJOINT_SUPPORT})
_EVERY_CLASS = frozenset(PairKind) - {PairKind.ARBITRARY}  # the tags classify_pair gives

BOUNDS: dict[str, Bound] = {
    T1_EQUALITY: Bound(
        PairKind.DISJOINT_SUPPORT, _DISJOINT, PairKind.DISJOINT_SUPPORT, "equality", _t1_sides
    ),
    GAIN_LE_1: Bound(
        PairKind.DISJOINT_SUPPORT, _DISJOINT, PairKind.DISJOINT_SUPPORT, "upper", _gain_sides
    ),
    T2_UPPER: Bound(
        PairKind.ORTHOGONAL_SAME_SPACE, _DISJOINT | {PairKind.ORTHOGONAL_SAME_SPACE},
        PairKind.ORTHOGONAL_SAME_SPACE, "upper", _t2_sides,
    ),
    # T3 reduces to T2 when s = 1, so it is checked only where T2 is not.
    T3_UPPER: Bound(
        None, frozenset({PairKind.NON_ORTHOGONAL}), PairKind.NON_ORTHOGONAL, "upper", _t3_sides
    ),
    T4_LOWER_A: Bound(None, _EVERY_CLASS, PairKind.ARBITRARY, "lower", _t4a_sides),
    T4_LOWER_B: Bound(None, _EVERY_CLASS, PairKind.ARBITRARY, "lower", _t4b_sides),
}

ALL_BOUND_IDS = tuple(BOUNDS)


def _slack(bound: Bound, lhs, rhs):
    if bound.direction == "equality":
        return abs(lhs - rhs)
    return rhs - lhs if bound.direction == "upper" else lhs - rhs


def _satisfied(bound: Bound, slack, tolerance: float):
    return slack <= tolerance if bound.direction == "equality" else slack >= -tolerance


def _report(bound_id: str, q: _Quantities, tolerance: float) -> BoundReport:
    bound = BOUNDS[bound_id]
    lhs, rhs = bound.sides(q, binary_entropy)
    slack = _slack(bound, lhs, rhs)
    return BoundReport(bound_id, lhs, rhs, slack, _satisfied(bound, slack, tolerance), tolerance)


def row_slacks(
    bound_id: str,
    alpha: np.ndarray,
    beta: np.ndarray,
    states: np.ndarray,
    norms: np.ndarray,
    *,
    kind: PairKind = PairKind.ARBITRARY,
) -> np.ndarray:
    """``evaluate_bound(...).slack`` of each row triple, NaN where it has none.

    ``alpha``/``beta`` are (R,) coefficients.  Slots 0 and 1 of the
    (R, 3, d) ``states`` hold phi and psi, scaled to unit norm by columns 0
    and 1 of the (R, 3) ``norms``.  This writes the superposition and its s
    into slot and column 2 (``superpose_rows``), takes the three slots'
    coherences in one ``entropy.row_coherences`` call, and checks each row
    in the loop that reads its floats into a record for ``Bound.sides``.
    Where beta is finite, all three norms are ``linalg.normalizable`` and
    the pair meets the bound's hypothesis, slacks[i] is that slack bit for
    bit; elsewhere it is NaN, and ``parameterize`` or ``evaluate_bound``
    rejects the row's triple.  An exception from the sides of a checked row
    is a bug, and propagates.  ``kind`` is the pair kind the rows were
    drawn as: a ``DISJOINT_SUPPORT`` draw zeroes the off-block amplitudes
    exactly, so <phi|psi> is exactly 0 and its rows meet every hypothesis
    with no test.  Other rows are tested as ``classify_pair`` classifies:
    orthogonal, and for a disjointness hypothesis disjoint too.
    """
    bound = BOUNDS[bound_id]
    superpose_rows(alpha, beta, states, norms)
    coherence = row_coherences(states)
    # The hypothesis test computes only the quantity it reads.
    phi, psi = states[:, 0], states[:, 1]
    if bound.hypothesis is None or kind is PairKind.DISJOINT_SUPPORT:
        meets = repeat(True)
    else:
        meets = is_orthogonal(row_vdot(phi, psi))
        if bound.hypothesis is PairKind.DISJOINT_SUPPORT:
            meets &= disjoint_rows(phi, psi)
        meets = meets.tolist()
    slacks = []
    for a, b, (n_phi, n_psi, s), c, met in zip(
        alpha.tolist(), beta.tolist(), norms.tolist(), coherence.tolist(), meets
    ):
        usable = normalizable(n_phi) and normalizable(n_psi) and normalizable(s)
        if met and usable and abs(b) < math.inf:
            # The weights as SuperpositionCoefficients computes them: on a
            # few rows, Python floats cost less than coefficient_weights.
            q = _Quantities(abs(a) * abs(a), abs(b) * abs(b), s, *c)
            slacks.append(_slack(bound, *bound.sides(q, binary_entropy)))
        else:
            slacks.append(math.nan)
    return np.array(slacks)


def evaluate_bound(
    bound_id: str,
    coeffs: SuperpositionCoefficients,
    phi: StateVector,
    psi: StateVector,
    *,
    tolerance: float = TOLERANCES.bound_slack,
) -> BoundReport:
    """Evaluate one bound of ``BOUNDS`` on an input triple.

    A bound with a hypothesis classifies the pair and raises
    WrongPairClassError unless its class is one of ``Bound.kinds``.
    """
    bound = BOUNDS[bound_id]
    if bound.hypothesis is not None:
        pair_class = classify_pair(phi, psi)
        if pair_class.tag not in bound.kinds:
            raise WrongPairClassError(
                f"pair classified as {pair_class.tag.value}; disjoint support required"
                if bound.hypothesis is PairKind.DISJOINT_SUPPORT else
                f"|<phi|psi>| = {abs(pair_class.overlap):.3e} exceeds the "
                f"orthogonality threshold {TOLERANCES.overlap:g}"
            )
    return _report(bound_id, _record(coeffs, phi, psi), tolerance)


def evaluate_all(
    coeffs: SuperpositionCoefficients,
    phi: StateVector,
    psi: StateVector,
    *,
    tolerance: float = TOLERANCES.bound_slack,
) -> list[BoundReport]:
    """Evaluate, in ``BOUNDS`` order, every bound whose ``classes`` hold the
    pair's class.

    Disjoint support: equality, gain ceiling, orthogonal upper bound, and
    both lower-bound branches.  Orthogonal same-space: orthogonal upper bound
    plus lower bounds.  Non-orthogonal: general upper bound plus lower
    bounds.  Every bound reads the normalized superposition, so when the
    branches cancel (norm numerically zero) this raises ``ZeroVectorError``.
    """
    tag = classify_pair(phi, psi).tag
    q = _record(coeffs, phi, psi)
    return [_report(bound_id, q, tolerance)
            for bound_id, bound in BOUNDS.items() if tag in bound.classes]


def evaluate_rows(
    classes: dict[PairKind, np.ndarray],
    values: dict[str, np.ndarray],
    ok: np.ndarray,
    tolerance: float = TOLERANCES.bound_slack,
) -> tuple[np.ndarray, list[tuple[str, np.ndarray, np.ndarray, np.ndarray]]]:
    """``evaluate_all`` on R input triples, each bound's formula run once on
    (R,) arrays.  ``classes`` holds the row mask of each pair class
    (``superpose.class_masks``), whose rows meet the hypothesis of each bound
    checked on the class, ``values`` the six fields of the record
    (``alpha_sq``, ``beta_sq``, ``s`` and ``coherence_phi``/``_psi``/``_t1``),
    and ``ok`` the rows whose record the scalar path builds without raising
    (s ``normalizable`` among them).

    Returns ``ok`` less the rows at which ``evaluate_all`` raises (an entropy
    argument outside [0, 1]), and per bound, in ``BOUNDS`` order, (bound id,
    rows, slacks, satisfied) over the ok rows of its classes: there each is
    ``evaluate_all``'s bit for bit.
    """
    q = _Quantities(**values)
    ok = ok.copy()
    h_alpha = binary_entropy_rows(q.alpha_sq)  # read by T1, T2 and T3
    verdicts = []
    for bound_id, bound in BOUNDS.items():
        applies = np.logical_or.reduce([classes[kind] for kind in bound.classes])

        def entropy(x: np.ndarray) -> np.ndarray:
            value, inside = h_alpha if x is q.alpha_sq else binary_entropy_rows(x)
            ok[applies & ~inside] = False
            return value

        slack = _slack(bound, *bound.sides(q, entropy))
        verdicts.append((bound_id, applies, slack, _satisfied(bound, slack, tolerance)))
    results = []
    for bound_id, applies, slack, satisfied in verdicts:
        rows = np.flatnonzero(applies & ok)
        results.append((bound_id, rows, slack[rows], satisfied[rows]))
    return ok, results
