"""Deterministic random primitives shared by ensembles and search.

Generator scheme (stable by construction, documented here on purpose):

* Sub-seed derivation: the k-th sub-seed of a 64-bit master seed is the k-th
  output of SplitMix64 seeded with the master, i.e. the SplitMix64 finalizer
  applied to ``master + (k+1) * GOLDEN mod 2^64``.  The finalizer is a
  bijection on 64-bit words and the golden-ratio stride is odd, so sub-seeds
  never collide for a fixed master.
* Stream: each sub-seed keys a counter-based Philox4x64-10 stream, whose
  uniform doubles are the top 53 bits of each word: numpy's ``Philox`` bit
  generator's ``random()`` words, bit for bit, and platform-stable.
* Gaussians: Box-Muller on consecutive uniforms; a complex Gaussian consumes
  exactly one uniform pair (radius and angle).

``subseeds`` computes the sub-seeds of arrays of masters and indices at
once, ``ragged_uniforms`` the uniform streams of an array of keys, each of
its own length, in one call, and ``stream`` one key's stream; every draw
reads them through ``UniformRows``, so the package never loads numpy's
random module.  ``ragged_uniforms`` is Philox4x64-10 (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3", SC'11) in numpy over a vector
of (key, block) counters (``philox_blocks``).  A call costs about 0.4 ms
even at one key, and about 2 ms for the 2000 streams (15 125 blocks) of the
benchmark's ``verify`` unit, so draws that can wait for each other share one:
``ensembles`` draws once per pass, whatever the stream lengths in it.  A
few streams cost less one at a time, so ``search`` draws each restart's
start with ``stream``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def subseed(master: int, index: int) -> int:
    """The ``index``-th output of SplitMix64 seeded with ``master``."""
    z = (master + (index + 1) * _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class UniformRows:
    """Pre-drawn uniforms, one stream per row (or a 1-d stream), read like a
    generator: ``random(n)`` returns the next n columns, ``random()`` the next."""

    def __init__(self, uniforms: np.ndarray):
        self.uniforms = uniforms
        self.pos = 0

    def random(self, n: Optional[int] = None) -> np.ndarray:
        start = self.pos
        self.pos += 1 if n is None else n
        if self.pos > self.uniforms.shape[-1]:
            raise IndexError(f"read {self.pos} uniforms from a stream of {self.uniforms.shape[-1]}")
        return self.uniforms[..., start] if n is None else self.uniforms[..., start:self.pos]


def stream(seed: int, n: int) -> UniformRows:
    """The first ``n`` uniforms of the stream keyed by ``seed``, the ones
    ``ragged_uniforms`` draws for that key, read like a generator.

    ``philox_blocks``'s rounds run on Python ints, every block at once:
    block j's word c_i sits in bits [128 j, 128 j + 64) of one int per i, so
    a round's 64 x 64-bit products stay in their 128-bit lanes and ``low``
    keeps each lane's low word.  That skips the array form's fixed 0.4 ms per call:
    about 12 us for 2 words and 25 us for 66.
    """
    blocks = (n + 3) // 4
    spread = int.from_bytes((b"\x01" + bytes(15)) * blocks, "little")  # a 1 in every lane
    low = MASK64 * spread
    c0 = int.from_bytes(b"".join(j.to_bytes(16, "little") for j in range(1, blocks + 1)), "little")
    c1 = c2 = c3 = 0
    (m0, m1), (w0, w1) = _PHILOX_M, _PHILOX_W
    k0, k1 = seed & MASK64, 0
    for _ in range(_PHILOX_ROUNDS):
        p0, p1 = m0 * c0, m1 * c2
        c0, c1 = ((p1 >> 64) & low) ^ c1 ^ k0 * spread, p1 & low
        c2, c3 = ((p0 >> 64) & low) ^ c3 ^ k1 * spread, p0 & low
        k0, k1 = (k0 + w0) & MASK64, (k1 + w1) & MASK64
    # Lane j of c0 | c1 << 64 holds words 4j and 4j + 1; of c2 | c3 << 64, 4j + 2 and 4j + 3.
    size = 16 * blocks
    raw = (c0 | c1 << 64).to_bytes(size, "little") + (c2 | c3 << 64).to_bytes(size, "little")
    words = np.frombuffer(raw, dtype="<u8").reshape(2, blocks, 2).transpose(1, 0, 2).reshape(-1)[:n]
    return UniformRows((words >> _U64(11)) * _UNIT)


def _box_muller(gen: UniformRows, pairs: int) -> tuple[np.ndarray, np.ndarray]:
    # 1 - U keeps the radius argument in (0, 1]; log(0) is unreachable.
    u1 = 1.0 - gen.random(pairs)
    u2 = gen.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    return radius * np.cos(angle), radius * np.sin(angle)


def standard_normals(gen: UniformRows, n: int) -> np.ndarray:
    """n independent N(0, 1) reals via Box-Muller (n per row from ``UniformRows``)."""
    first, second = _box_muller(gen, (n + 1) // 2)
    return np.concatenate([first, second], axis=-1)[..., :n]


def complex_normals(gen: UniformRows, n: int) -> np.ndarray:
    """n independent standard complex Gaussians (N(0,1) real and imaginary parts)."""
    first, second = _box_muller(gen, n)
    out = np.empty(first.shape, dtype=np.complex128)
    out.real = first
    out.imag = second
    return out


_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_SHIFT32 = _U64(32)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_UNIT = 1.0 / 9007199254740992.0  # a uniform is a word's top 53 bits times 2^-53


def subseeds(masters, indices: np.ndarray) -> np.ndarray:
    """``subseed(m, k)`` for every master m and index k, broadcast together, as
    uint64.  ``masters`` is an int, taken mod 2^64, or an integer array,
    whose entries are cast to uint64, which takes them mod 2^64 too."""
    if isinstance(masters, int):
        masters = _U64(masters & MASK64)
    z = np.asarray(masters).astype(_U64) + (indices.astype(_U64) + _U64(1)) * _U64(_GOLDEN)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


# Each multiplier with its low and high 32-bit limbs, as uint64 scalars.
# Python ints build them, so importing runs no ufunc.
_M0, _M1 = ((_U64(m), _U64(m & 0xFFFFFFFF), _U64(m >> 32)) for m in _PHILOX_M)


def _mulhilo(a: np.ndarray, multiplier, out=None) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products ``a * m``.

    numpy has no 64x64->128 multiply, so the high word is assembled from
    32-bit limbs (no partial sum below overflows 64 bits); uint64
    multiplication wraps, which gives the low word.  ``multiplier`` is m
    and its two limbs as uint64 scalars.  The low words overwrite ``a``; the
    high words go to ``out[0]``, and ``out[1:]`` is scratch.  ``out`` is
    three arrays of ``a``'s shape, allocated if not given.
    """
    m, m_lo, m_hi = multiplier
    hi, t, u = np.empty((3,) + a.shape, dtype=_U64) if out is None else out
    np.bitwise_and(a, _LOW32, out=t)
    np.multiply(t, m_hi, out=u)
    t *= m_lo
    t >>= _SHIFT32
    np.right_shift(a, _SHIFT32, out=hi)
    hi *= m_lo
    hi += t  # the middle partial sum
    np.bitwise_and(hi, _LOW32, out=t)
    u += t  # the cross partial sum
    hi >>= _SHIFT32
    u >>= _SHIFT32
    hi += u
    np.right_shift(a, _SHIFT32, out=u)
    u *= m_hi
    hi += u
    a *= m
    return hi, a


def philox_blocks(keys: np.ndarray, blocks: np.ndarray) -> tuple[np.ndarray, ...]:
    """The words c0-c3 of the first ``blocks[i]`` Philox4x64-10 blocks keyed by
    ``keys[i]``, for each i: four (F,) uint64 arrays, F = ``sum(blocks)``, one
    key's blocks after another.  Word 4 j + r of
    ``Philox(key=k).random_raw()`` is c_r of key k's block j.

    Key k's stream is key ``(k, 0)``, and its block j is counter
    ``(j + 1, 0, 0, 0)`` because numpy increments the counter before each
    block.  Those zeros make rounds 1-2 cheap: each of their products
    depends on the key alone or on the block alone, so they run on (keys,)
    and (blocks,) arrays, then are repeated and gathered out to the F
    blocks drawn.  Rounds 3-10 run in place on the four arrays: a round
    overwrites c0 and c2 with their products' low words, the new c3 and c1,
    and xors the high words into c3 and c1, the new c2 and c0, so it renames
    the arrays instead of copying them.  A call holds at most 8 F words at
    once.
    """
    k = keys.astype(_U64, copy=False)
    blocks = np.asarray(blocks, dtype=np.intp)
    size = k.size
    # Round 1 leaves (k, 0, hi_1, lo_1) with (hi_1, lo_1) = mulhilo(j + 1, M0);
    # round 2 multiplies c0 = k by M0 and c2 = hi_1 by M1, under key (k + W0, W1).
    counters = np.arange(1, blocks.max(initial=0) + 1, dtype=_U64)
    hi, lo = _mulhilo(np.concatenate([k, counters]), _M0)
    hi_k, lo_k, lo_1 = hi[:size], lo[:size], lo[size:]
    hi_b, lo_b = _mulhilo(hi[size:], _M1)
    (w0, w1), k1 = _PHILOX_W, _PHILOX_W[1]
    # The words after round 2, (hi_b ^ k0, lo_b, hi_k ^ lo_1 ^ k1, lo_k), where
    # block f of the draw is block j[f] of its key.
    j = np.arange(int(blocks.sum()))
    j -= np.repeat(np.cumsum(blocks) - blocks, blocks)
    key = np.repeat(k, blocks)
    key += _U64(w0)
    c0, c1, c2 = hi_b[j], lo_b[j], lo_1[j]
    del j
    c0 ^= key
    c2 ^= np.repeat(hi_k, blocks)
    c2 ^= _U64(k1)
    c3 = np.repeat(lo_k, blocks)

    scratch = np.empty((3,) + key.shape, dtype=_U64)
    for _ in range(_PHILOX_ROUNDS - 2):
        key += _U64(w0)
        k1 = (k1 + w1) & MASK64
        hi, _ = _mulhilo(c0, _M0, out=scratch)
        c3 ^= hi
        c3 ^= _U64(k1)
        hi, _ = _mulhilo(c2, _M1, out=scratch)
        c1 ^= hi
        c1 ^= key
        c0, c1, c2, c3 = c1, c2, c3, c0
    return c0, c1, c2, c3


def ragged_uniforms(keys: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The first ``lengths[i]`` uniforms of the stream keyed by ``keys[i]``,
    for each i, one key's after another in a flat array.

    One ``philox_blocks`` call draws the blocks that hold them.  Each run of
    keys of one length then takes its rows' words c_r straight into
    columns r, r + 4, ... of its (rows, length) uniforms, so the call holds
    no interleaved copy of the words, and the words of a partly read last
    block are dropped.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    words = philox_blocks(keys, (lengths + 3) // 4)
    for c in words:
        c >>= _U64(11)
    uniforms = np.empty(int(lengths.sum()))
    starts = np.flatnonzero(np.diff(lengths, prepend=-1)).tolist()
    drawn = done = 0
    for first, stop in zip(starts, starts[1:] + [lengths.size]):
        rows, n = stop - first, int(lengths[first])
        blocks = (n + 3) // 4
        run = uniforms[done : done + rows * n].reshape(rows, n)
        for r, c in enumerate(words):
            ours = c[drawn : drawn + rows * blocks].reshape(rows, blocks)[:, : (n - r + 3) // 4]
            np.multiply(ours, _UNIT, out=run[:, r::4])
        drawn, done = drawn + rows * blocks, done + rows * n
    return uniforms
