"""The array forms of the random streams against their scalar references."""

import numpy as np

from coherence_lab.rng import MASK64, make_generator, philox_raw, philox_uniforms, subseed, subseeds

KEYS = 10_000
MAX_DRAWS = 70


def _keys() -> np.ndarray:
    keys = np.random.default_rng(20_161).integers(0, 2**64, KEYS, dtype=np.uint64, endpoint=False)
    keys[:3] = [0, MASK64, 1]
    return keys


def test_philox_raw_matches_numpy_philox():
    keys = _keys()
    # A stream's first n words are the first n of any longer draw from it.
    expected = np.array([np.random.Philox(key=int(k)).random_raw(MAX_DRAWS) for k in keys])
    for n in range(1, MAX_DRAWS + 1):
        assert np.array_equal(philox_raw(keys, n), expected[:, :n]), n


def test_philox_uniforms_match_generator_random():
    keys = _keys()
    expected = np.array([make_generator(int(k)).random(MAX_DRAWS) for k in keys])
    for n in (1, 2, 3, 5, 34, 66, MAX_DRAWS):
        assert np.array_equal(philox_uniforms(keys, n), expected[:, :n]), n


def test_subseeds_match_subseed():
    indices = np.arange(KEYS)
    for master in (0, 1, 42, 0x9E3779B97F4A7C15, MASK64):
        got = subseeds(master, indices)
        assert got.dtype == np.uint64
        assert [int(z) for z in got] == [subseed(master, int(k)) for k in indices]
