"""numpy's own Philox generator: the independent oracle for the package's streams.

The package computes Philox4x64-10 itself, on arrays (``rng.philox_blocks``)
and on Python ints (``rng.stream``), and never loads numpy's random module;
the tests compare both with numpy's C implementation through this one helper.
"""

import numpy as np

from coherence_lab.rng import MASK64


def numpy_generator(key: int) -> np.random.Generator:
    """numpy's ``Generator(Philox(key))``, whose ``random()`` words are those of
    the package's stream keyed by ``key``."""
    return np.random.Generator(np.random.Philox(key=key & MASK64))
