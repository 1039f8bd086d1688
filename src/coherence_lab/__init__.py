"""Relative entropy of coherence for two-term superpositions.

A numerical library and CLI for the coherence of pure-state superpositions
in a fixed reference basis: entropy functionals, the exact disjoint-support
decomposition, upper and lower bounds with signed-slack reports, seeded
Monte-Carlo verification ensembles, and derivative-free saturation search.
"""

__version__ = "0.1.0"

from .bounds import (
    ALL_BOUND_IDS,
    BOUNDS,
    GAIN_LE_1,
    T1_EQUALITY,
    T2_UPPER,
    T3_UPPER,
    T4_LOWER_A,
    T4_LOWER_B,
    BoundReport,
    evaluate_all,
    evaluate_bound,
)
from .ensembles import (
    EnsembleConfig,
    TrialRecord,
    haar_random_state,
    random_coefficients,
    random_orthogonal_pair,
    run_ensemble,
    summarize_ensembles,
)
from .entropy import (
    binary_entropy,
    pure_state_coherence,
    relative_entropy_coherence,
    von_neumann_entropy,
)
from .errors import (
    BadSplitError,
    CoherenceLabError,
    ConfigError,
    ConsistencyError,
    DegeneratePairError,
    DimensionMismatchError,
    DomainError,
    NotHermitianError,
    WrongPairClassError,
    ZeroVectorError,
)
from .linalg import (
    DensityMatrix,
    StateVector,
    hermitian_eigenvalues,
    normalize,
)
from .search import (
    SearchResult,
    SearchSpec,
    minimize_slack,
    parameter_count,
    parameterize,
)
from .superpose import (
    PairKind,
    SuperpositionCoefficients,
    classify_pair,
    default_split,
    mixing_identity_residual,
    norm_identity_residual,
    superpose,
    t_states,
)
from .tolerances import TOLERANCES, Tolerances

__all__ = [
    "ALL_BOUND_IDS",
    "BOUNDS",
    "GAIN_LE_1",
    "T1_EQUALITY",
    "T2_UPPER",
    "T3_UPPER",
    "T4_LOWER_A",
    "T4_LOWER_B",
    "BoundReport",
    "BadSplitError",
    "CoherenceLabError",
    "ConfigError",
    "ConsistencyError",
    "DegeneratePairError",
    "DensityMatrix",
    "DimensionMismatchError",
    "DomainError",
    "EnsembleConfig",
    "NotHermitianError",
    "PairKind",
    "SearchResult",
    "SearchSpec",
    "StateVector",
    "SuperpositionCoefficients",
    "TOLERANCES",
    "Tolerances",
    "TrialRecord",
    "WrongPairClassError",
    "ZeroVectorError",
    "binary_entropy",
    "classify_pair",
    "default_split",
    "evaluate_all",
    "evaluate_bound",
    "haar_random_state",
    "hermitian_eigenvalues",
    "minimize_slack",
    "mixing_identity_residual",
    "norm_identity_residual",
    "normalize",
    "parameter_count",
    "parameterize",
    "pure_state_coherence",
    "random_coefficients",
    "random_orthogonal_pair",
    "relative_entropy_coherence",
    "run_ensemble",
    "summarize_ensembles",
    "superpose",
    "t_states",
    "von_neumann_entropy",
]
