"""Exception types shared across the package."""


class CoherenceLabError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(CoherenceLabError):
    """Two states that must live in the same space have different dimensions."""


class ZeroVectorError(CoherenceLabError):
    """A vector that must be normalizable has (numerically) zero norm."""


class NotHermitianError(CoherenceLabError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class DomainError(CoherenceLabError):
    """A scalar argument lies outside its mathematical domain."""


class WrongPairClassError(CoherenceLabError):
    """A bound was evaluated on a state pair outside its hypothesis class."""


class DegeneratePairError(CoherenceLabError):
    """Pair sampling, or every restart of a search, found no acceptable pair."""


class BadSplitError(CoherenceLabError):
    """An index-partition specification is inconsistent with the dimension."""


class ConsistencyError(CoherenceLabError):
    """An internally computed quantity violated an invariant by more than slop."""


class ConfigError(CoherenceLabError):
    """A configuration file or flag combination could not be parsed."""
