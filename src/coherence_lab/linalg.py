"""Complex linear algebra for states in a fixed reference basis.

The incoherent (reference) basis is always the computational basis, indexed
0..d-1.  Values are immutable after construction and safe to share between
threads; every operation here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotHermitianError, ZeroVectorError
from .tolerances import TOLERANCES


def _as_complex_vector(values) -> np.ndarray:
    vec = np.array(values, dtype=np.complex128)
    if vec.ndim != 1 or vec.size < 1:
        raise ValueError(f"expected a 1-d complex vector, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValueError("vector has non-finite components")
    return vec


def norm(vec: np.ndarray) -> float:
    """Euclidean norm of a 1-d complex vector: ``np.linalg.norm``'s own formula,
    so the same float bit for bit (overflow included), minus its dispatch."""
    re, im = vec.real, vec.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _seal(state: "StateVector", amps: np.ndarray) -> "StateVector":
    """Freeze finite 1-d complex128 ``amps`` into ``state`` after the unit-norm check.

    The check stays although a vector scaled by its own finite norm above the
    degeneracy threshold always passes it (to within (d + 4) u, u = 2^-53, see
    ``normalize_rows``): ``StateVector`` also validates the caller's amplitudes.
    """
    n = norm(amps)
    if abs(n - 1.0) > TOLERANCES.norm:
        raise ValueError(f"state vector norm is {n!r}, not 1")
    amps.setflags(write=False)
    object.__setattr__(state, "amps", amps)
    return state


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitude vector in the reference basis."""

    amps: np.ndarray

    def __post_init__(self):
        _seal(self, _as_complex_vector(self.amps))

    @property
    def dim(self) -> int:
        return self.amps.size


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace complex matrix.

    The spectrum is computed once at construction (it doubles as the
    positivity check) and cached for entropy evaluations.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.complex128)
        # Also rejects non-square, non-finite and non-Hermitian input.
        eigs = hermitian_eigenvalues(mat)
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > TOLERANCES.norm:
            raise ValueError(f"trace is {trace!r}, not 1")
        if eigs[-1] < -TOLERANCES.psd:
            raise ValueError(f"matrix has negative eigenvalue {eigs[-1]:.3e}")
        mat.setflags(write=False)
        eigs.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "_eigenvalues", eigs)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues in descending order (cached at construction)."""
        return self._eigenvalues

    @classmethod
    def from_pure(cls, state: StateVector) -> "DensityMatrix":
        """Projector onto a pure state."""
        return cls(np.outer(state.amps, state.amps.conj()))


def scaled_state(vec: np.ndarray, n: float) -> StateVector:
    """The state ``vec / n`` of a finite 1-d complex128 ``vec`` whose norm ``n``
    is above the degeneracy threshold.

    ``vec / n`` is then finite, so the state gets only the unit-norm check,
    which an overflowed ``n = inf`` fails.
    """
    return _seal(object.__new__(StateVector), vec / n)


def normalize(raw) -> StateVector:
    """Scale a raw complex vector to unit norm, preserving its direction.

    Raises ZeroVectorError when the norm is at or below the degeneracy
    threshold.
    """
    vec = _as_complex_vector(raw)
    n = norm(vec)
    if n <= TOLERANCES.zero_vector:
        raise ZeroVectorError(f"cannot normalize vector with norm {n:.3e}")
    return scaled_state(vec, n)


def row_vdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.vdot`` of each pair of rows (``ndarray.dot`` for real rows).

    ``np.vecdot`` runs the BLAS ``zdotc``/``ddot`` kernel that ``np.vdot`` and
    ``ndarray.dot`` run on one vector, row by row, so each entry is the scalar
    call's float bit for bit; a row-sum formula is not.
    """
    return np.vecdot(a, b)


def moduli(z: np.ndarray) -> np.ndarray:
    """``abs`` of each complex entry, as Python's ``abs(complex)`` and numpy's
    complex scalar compute it (``hypot``), bit for bit; ``np.abs`` is not."""
    return np.hypot(z.real, z.imag)


def row_norms(rows: np.ndarray, out=None) -> np.ndarray:
    """``norm`` of each row (last axis) of a complex array, bit for bit, into
    ``out`` if given."""
    re, im = rows.real, rows.imag
    return np.sqrt(row_vdot(re, re) + row_vdot(im, im), out=out)


def project_out_rows(base: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row minus its projection on the unit row of ``base``, taken twice
    (Gram-Schmidt, then again for round-off): (the projected rows, the mask
    of rows whose norm after the first projection is above
    ``TOLERANCES.zero_vector``, NaN not).  Outside the mask a row lay in
    ``base``'s span to round-off; each caller chooses only its reaction."""
    projected = rows - row_vdot(base, rows)[:, None] * base
    kept = row_norms(projected) > TOLERANCES.zero_vector
    return projected - row_vdot(base, projected)[:, None] * base, kept


def normalizable(n):
    """Whether ``normalize`` accepts a vector of norm ``n`` (a float or an
    array): n lies strictly inside (``TOLERANCES.zero_vector``, inf).  NaN
    does not."""
    return (n > TOLERANCES.zero_vector) & (n < math.inf)


def normalize_rows(raw: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """``normalize`` on each row (last axis) of a complex array: (states,
    norms), written into the arrays ``out`` = (states, norms) if given.

    Where ``normalizable(norms)`` holds, a row of ``states`` is
    ``normalize(row).amps`` bit for bit.  Elsewhere ``normalize`` rejects the
    row: its norm is at or below the degeneracy threshold, or it is not
    finite.  A non-finite entry makes the norm NaN or inf, and so does a
    finite row whose norm overflows (its scaled row then holds zeros, which
    the unit-norm check rejects), so no separate scan is needed.  A finite
    norm n above the threshold passes that check: the scaled row's norm is 1
    to within about (d + 4) u, u = 2^-53, for d entries (7e-12 at d = 2^16),
    far inside ``TOLERANCES.norm``.  Rows that are not normalizable may hold
    NaN or inf; numpy warns as usual about them.
    """
    states, norms = (None, None) if out is None else out
    norms = row_norms(raw, out=norms)
    return np.divide(raw, norms[..., None], out=states), norms


def hermitian_eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted descending (LAPACK ``eigvalsh``)."""
    a = np.array(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    defect = float(np.max(np.abs(a - a.conj().T)))
    if defect > TOLERANCES.hermitian:
        raise NotHermitianError(f"matrix deviates from Hermitian by {defect:.3e}")
    return np.linalg.eigvalsh(a)[::-1]
