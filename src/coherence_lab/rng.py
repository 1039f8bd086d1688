"""Deterministic random primitives shared by ensembles and search.

Generator scheme (stable by construction, documented here on purpose):

* Sub-seed derivation: the k-th sub-seed of a 64-bit master seed is the k-th
  output of SplitMix64 seeded with the master, i.e. the SplitMix64 finalizer
  applied to ``master + (k+1) * GOLDEN mod 2^64``.  The finalizer is a
  bijection on 64-bit words and the golden-ratio stride is odd, so sub-seeds
  never collide for a fixed master.
* Stream: each sub-seed keys a counter-based Philox generator (numpy's
  ``Philox`` bit generator), whose raw uniform doubles are platform-stable.
* Gaussians: Box-Muller on consecutive uniforms; a complex Gaussian consumes
  exactly one uniform pair (radius and angle).

``subseeds`` and ``philox_uniforms`` compute the same sub-seeds and uniform
streams for a whole array of trials at once: SplitMix64 and Philox4x64-10
(Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11) written
in numpy over a vector of keys, bit-exact with ``subseed`` and numpy's
``Philox``.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def subseed(master: int, index: int) -> int:
    """The ``index``-th output of SplitMix64 seeded with ``master``."""
    z = (master + (index + 1) * _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def make_generator(seed: int) -> np.random.Generator:
    """Counter-based Philox stream keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & MASK64))


def _box_muller(gen: np.random.Generator, pairs: int) -> tuple[np.ndarray, np.ndarray]:
    # 1 - U keeps the radius argument in (0, 1]; log(0) is unreachable.
    u1 = 1.0 - gen.random(pairs)
    u2 = gen.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    return radius * np.cos(angle), radius * np.sin(angle)


def standard_normals(gen: np.random.Generator, n: int) -> np.ndarray:
    """n independent N(0, 1) reals via Box-Muller."""
    pairs = (n + 1) // 2
    first, second = _box_muller(gen, pairs)
    return np.concatenate([first, second])[:n]


def complex_normals(gen: np.random.Generator, n: int) -> np.ndarray:
    """n independent standard complex Gaussians (N(0,1) real and imaginary parts)."""
    first, second = _box_muller(gen, n)
    return first + 1j * second


_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (_U64(0x9E3779B97F4A7C15), _U64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10


def subseeds(master: int, indices: np.ndarray) -> np.ndarray:
    """``subseed(master, k)`` for every k in ``indices``, as uint64."""
    z = _U64(master & MASK64) + (indices.astype(_U64) + _U64(1)) * _U64(_GOLDEN)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products ``a * m``.

    numpy has no 64x64->128 multiply, so the high word is assembled from
    32-bit limbs (no partial sum below overflows 64 bits); uint64
    multiplication wraps, which gives the low word.
    """
    m_lo, m_hi = _U64(m & 0xFFFFFFFF), _U64(m >> 32)
    a_lo, a_hi = a & _LOW32, a >> _U64(32)
    mid = a_hi * m_lo + ((a_lo * m_lo) >> _U64(32))
    cross = a_lo * m_hi + (mid & _LOW32)
    high = a_hi * m_hi + (mid >> _U64(32)) + (cross >> _U64(32))
    return high, a * _U64(m)


def philox_raw(keys: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` words of ``Philox(key=k).random_raw()`` for each key k.

    Row i holds key ``keys[i]``'s stream: key ``(k, 0)``, and block j is
    counter ``(j + 1, 0, 0, 0)`` because numpy increments the counter before
    each block.
    """
    blocks = (n + 3) // 4
    k0 = keys.astype(_U64)[:, None]
    k1 = np.zeros_like(k0)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=_U64), (keys.size, blocks))
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = k0 + _PHILOX_W[0]
            k1 = k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(keys.size, 4 * blocks)[:, :n]


def philox_uniforms(keys: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` values of ``make_generator(k).random()`` for each key k."""
    return (philox_raw(keys, n) >> _U64(11)) * (1.0 / 9007199254740992.0)
