"""Central numerical tolerances.

The underlying identities are exact in real arithmetic; floating point makes
every comparison a thresholded one.  All thresholds used by the library, the
CLI, and the test suite live in this single record so they cannot drift apart.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    norm: float = 1e-10               # unit norm, unit trace, probability sums
    hermitian: float = 1e-12          # max entrywise |A - A^dagger|
    bound_slack: float = 1e-9         # default verdict tolerance for bound reports
    overlap: float = 1e-10            # |<phi|psi>| at or below this counts as orthogonal
    support: float = 1e-12            # per-index amplitude threshold for disjoint support
    zero_vector: float = 1e-12        # norms at or below this are degenerate
    identity_residual: float = 1e-12  # algebraic identity residuals
    psd: float = 1e-10                # eigenvalues >= -psd pass positivity
    coherence_slop: float = 1e-9      # clamp window for coherence round-off


TOLERANCES = Tolerances()
