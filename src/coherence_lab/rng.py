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
``Philox``.  numpy's zero words in the counter and key make Philox rounds 1-2
per-key and per-block products, computed on (keys,) and (blocks,) arrays;
rounds 3-10 run in place on two paired lanes, (c0, c2) and (c1, c3).
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
_SHIFT32 = _U64(32)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def subseeds(master: int, indices: np.ndarray) -> np.ndarray:
    """``subseed(master, k)`` for every k in ``indices``, as uint64."""
    z = _U64(master & MASK64) + (indices.astype(_U64) + _U64(1)) * _U64(_GOLDEN)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


# Each multiplier with its low and high 32-bit limbs, as uint64 scalars, and
# stacked for rounds 3-10, which multiply the lanes (c0, c2) by (M0, M1) at
# once.  Python ints build them, so importing runs no ufunc.
_M0, _M1 = ((_U64(m), _U64(m & 0xFFFFFFFF), _U64(m >> 32)) for m in _PHILOX_M)
_LANES_M = tuple(np.array(pair, dtype=_U64).reshape(2, 1, 1) for pair in zip(_M0, _M1))
# Each round after the first adds (W0, W1) to the key (k0, k1), wrapping mod 2^64.
_KEY_BUMP = np.array(_PHILOX_W, dtype=_U64).reshape(2, 1, 1)


def _mulhilo(a: np.ndarray, multiplier, out=None) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products ``a * m``.

    numpy has no 64x64->128 multiply, so the high word is assembled from
    32-bit limbs (no partial sum below overflows 64 bits); uint64
    multiplication wraps, which gives the low word.  ``multiplier`` is m
    and its two limbs as uint64, broadcasting against ``a``.  The low words
    overwrite ``a``; the high words go to ``out[0]``, and ``out[1:]`` is
    scratch.  ``out`` is four arrays of ``a``'s shape, allocated if not given.
    """
    m, m_lo, m_hi = multiplier
    hi, a_lo, a_hi, t = np.empty((4,) + a.shape, dtype=_U64) if out is None else out
    np.bitwise_and(a, _LOW32, out=a_lo)
    np.right_shift(a, _SHIFT32, out=a_hi)
    np.multiply(a_lo, m_lo, out=t)
    t >>= _SHIFT32
    np.multiply(a_hi, m_hi, out=hi)
    a_hi *= m_lo
    a_hi += t  # the middle partial sum
    np.multiply(a_lo, m_hi, out=t)
    np.bitwise_and(a_hi, _LOW32, out=a_lo)
    t += a_lo  # the cross partial sum
    a_hi >>= _SHIFT32
    hi += a_hi
    t >>= _SHIFT32
    hi += t
    a *= m
    return hi, a


def philox_raw(keys: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` words of ``Philox(key=k).random_raw()`` for each key k.

    Row i holds key ``keys[i]``'s stream: key ``(k, 0)``, and block j is
    counter ``(j + 1, 0, 0, 0)`` because numpy increments the counter before
    each block.  Those zeros make rounds 1-2 cheap: each of their products
    depends on the key alone or on the block alone, so they run on (keys,)
    and (blocks,) arrays.  Rounds 3-10 run in place on two lanes of shape
    (2, blocks, keys), (c0, c2) and (c1, c3), in preallocated buffers; a
    round's lane swap is a reversed view, not a copy.  The result is the
    transposed view of a word-major array.
    """
    k = keys.astype(_U64, copy=False)
    size, blocks = k.size, (n + 3) // 4
    # Round 1 leaves (k, 0, hi_1, lo_1) with (hi_1, lo_1) = mulhilo(j + 1, M0);
    # round 2 multiplies c0 = k by M0 and c2 = hi_1 by M1, under key (k + W0, W1).
    hi, lo = _mulhilo(np.concatenate([k, np.arange(1, blocks + 1, dtype=_U64)]), _M0)
    hi_k, lo_k, lo_1 = hi[:size], lo[:size], lo[size:]
    hi_b, lo_b = _mulhilo(hi[size:], _M1)
    # The lanes after round 2: (hi_b ^ k0, lo_b, hi_k ^ lo_1 ^ k1, lo_k).
    shape = (2, blocks, size)
    a, b = np.empty((2,) + shape, dtype=_U64)
    key = np.stack([k, np.zeros_like(k)])[:, None] + _KEY_BUMP
    np.bitwise_xor(key, np.stack([hi_b, lo_1])[:, :, None], out=a)
    a[1] ^= hi_k
    b[0] = lo_b[:, None]
    b[1] = lo_k

    scratch = np.empty((4,) + shape, dtype=_U64)
    for _ in range(_PHILOX_ROUNDS - 2):
        hi, lo = _mulhilo(a, _LANES_M, out=scratch)
        key += _KEY_BUMP
        np.bitwise_xor(hi[::-1], b, out=b)
        b ^= key
        a, b = b, lo[::-1]

    # words[j, p, h] is word 4j + 2p + h, c_{2p+h} of block j, for every key:
    # row p of lane h.  Both copies run along contiguous rows of keys.
    words = np.empty((blocks, 2, 2, size), dtype=_U64)
    words[:, :, 0] = a.transpose(1, 0, 2)
    words[:, :, 1] = b.transpose(1, 0, 2)
    return words.reshape(4 * blocks, size)[:n].T


def philox_uniforms(keys: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` values of ``make_generator(k).random()`` for each key k."""
    words = philox_raw(keys, n)
    words >>= _U64(11)
    # The conversion writes the C-ordered (keys, n) array callers get.
    return np.multiply(words, 1.0 / 9007199254740992.0, order="C")
