"""The array forms of the random streams against their scalar references."""

import numpy as np
import pytest

from coherence_lab import rng
from coherence_lab.rng import (
    MASK64, philox_blocks, ragged_uniforms, subseed, subseeds,
)
from philox_oracle import numpy_generator

KEYS = 10_000
MAX_DRAWS = 70
W0 = 0x9E3779B97F4A7C15  # Philox4x64's first key bump
# Keys whose round key k + r*W0 wraps to exactly 0 mod 2^64 (at rounds 2 and
# 6), then more edge keys; the few-key tests take prefixes.
EDGE_KEYS = [2**64 - W0, (2**64 - 5 * W0) % 2**64, MASK64, 0, 1, 2**63, 0x0123456789ABCDEF]


def _keys() -> np.ndarray:
    keys = np.random.default_rng(20_161).integers(0, 2**64, KEYS, dtype=np.uint64, endpoint=False)
    keys[:3] = [0, MASK64, 1]
    return keys


def philox_raw(keys: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """``philox_blocks``'s words in stream order: each key's first
    ``4 * blocks[i]`` raw words, one key's after another."""
    return np.stack(philox_blocks(keys, blocks), axis=1).reshape(-1)


def _equal_rows(keys: np.ndarray, n: int) -> np.ndarray:
    """``philox_raw`` with every key drawing the blocks that hold n words: the
    first n words of each key's stream, as rows."""
    blocks = (n + 3) // 4
    return philox_raw(keys, np.full(keys.size, blocks)).reshape(keys.size, 4 * blocks)[:, :n]


def test_philox_raw_matches_numpy_philox():
    keys = _keys()
    # A stream's first n words are the first n of any longer draw from it.
    expected = np.array([np.random.Philox(key=int(k)).random_raw(MAX_DRAWS) for k in keys])
    for n in range(1, MAX_DRAWS + 1):
        assert np.array_equal(_equal_rows(keys, n), expected[:, :n]), n


@pytest.mark.parametrize("count", [1, 2, 3, 7])
def test_philox_raw_matches_numpy_philox_on_few_keys(count):
    # Rounds 1-2 run on (keys,) and (blocks,) arrays; here those hold one or a
    # few words, and every block count from 1 to 18 occurs.
    keys = np.array(EDGE_KEYS[:count], dtype=np.uint64)
    expected = np.array([np.random.Philox(key=int(k)).random_raw(MAX_DRAWS) for k in keys])
    for n in range(1, MAX_DRAWS + 1):
        got = _equal_rows(keys, n)
        assert got.shape == (count, n)
        assert np.array_equal(got, expected[:, :n]), n


def test_one_ragged_draw_matches_numpy_philox_key_by_key():
    # One call mixes block counts 1-18 over the edge keys, each at every
    # count, and over random keys; each key's words are its stream's prefix.
    counts = np.arange(1, 19)
    edges = np.repeat(np.array(EDGE_KEYS, dtype=np.uint64), counts.size)
    keys = np.concatenate([edges, _keys()[:500]])
    blocks = np.concatenate([np.tile(counts, len(EDGE_KEYS)),
                             np.random.default_rng(7).integers(1, 19, 500)])
    words = philox_raw(keys, blocks)
    assert words.dtype == np.uint64 and words.shape == (4 * blocks.sum(),)
    start = 0
    for key, count in zip(keys.tolist(), blocks.tolist()):
        stop = start + 4 * count
        assert np.array_equal(words[start:stop], np.random.Philox(key=key).random_raw(4 * count))
        start = stop


def test_ragged_uniforms_are_each_keys_stream_prefix():
    # Runs of one length and single keys, lengths 0-72 (every partial last
    # block), in one call; each key's uniforms are its generator's first ones.
    keys = np.concatenate([np.array(EDGE_KEYS, dtype=np.uint64), _keys()[:300]])
    lengths = np.concatenate([np.arange(len(EDGE_KEYS)) * 11,
                              np.repeat(np.random.default_rng(8).integers(0, 73, 60), 5)])
    uniforms = ragged_uniforms(keys, lengths)
    assert uniforms.shape == (lengths.sum(),)
    start = 0
    for key, n in zip(keys.tolist(), lengths.tolist()):
        want = numpy_generator(key).random(n)
        assert uniforms[start : start + n].tobytes() == want.tobytes(), (key, n)
        start += n


def test_philox_raw_of_no_keys_is_empty():
    none = np.empty(0, np.uint64)
    assert [c.shape for c in philox_blocks(none, np.empty(0, np.intp))] == [(0,)] * 4
    assert ragged_uniforms(none, np.empty(0, np.intp)).shape == (0,)
    assert ragged_uniforms(none, np.full(0, 5)).reshape(0, 5).shape == (0, 5)


def test_philox_uniforms_match_generator_random():
    keys = _keys()
    expected = np.array([numpy_generator(int(k)).random(MAX_DRAWS) for k in keys])
    for n in (1, 2, 3, 5, 34, 66, MAX_DRAWS):
        rows = ragged_uniforms(keys, np.full(keys.size, n)).reshape(keys.size, n)
        assert np.array_equal(rows, expected[:, :n]), n


@pytest.mark.parametrize("seed", EDGE_KEYS + [-1, -(2**63)])
def test_one_stream_reads_like_numpy_generator(seed):
    # Blocks and single values in turn, as the samplers read them; a negative
    # seed keys the stream of its two's complement.
    sizes = [3, None, 8, None, None, 1, 20]
    stream = rng.stream(seed, sum(1 if n is None else n for n in sizes))
    oracle = numpy_generator(seed)
    for n in sizes:
        got, want = stream.random(n), oracle.random(n)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), n
    assert stream.pos == stream.uniforms.size
    # Every partial block, and streams longer than one trial reads.
    for n in (0, 1, 2, 3, 4, 5, 66, 128, 129, 300):
        assert rng.stream(seed, n).uniforms.tobytes() == numpy_generator(seed).random(n).tobytes(), n


def test_a_stream_read_past_its_end_raises():
    # Two complex normals need four uniforms; three give no short draw.
    with pytest.raises(IndexError):
        rng.complex_normals(rng.stream(5, 3), 2)
    rows = rng.UniformRows(np.zeros((4, 2)))
    rows.random(2)
    with pytest.raises(IndexError):
        rows.random()


def test_subseeds_match_subseed():
    indices = np.arange(KEYS)
    for master in (0, 1, 42, 0x9E3779B97F4A7C15, MASK64):
        got = subseeds(master, indices)
        assert got.dtype == np.uint64
        assert [int(z) for z in got] == [subseed(master, int(k)) for k in indices]


def test_subseeds_of_an_array_of_masters_match_subseed():
    # Row i pairs masters[i] with indices[i]; an int master is taken mod 2^64.
    masters = np.array([0, 2**63, MASK64] * 3, dtype=np.uint64)
    indices = np.array([0, 0, 0, 1, 7, 2**40, 9999, 3, 2**63 - 1])
    got = subseeds(masters, indices)
    assert got.dtype == np.uint64
    assert got.tolist() == [subseed(int(m), int(k)) for m, k in zip(masters, indices)]
    assert subseeds(-1, indices).tolist() == subseeds(MASK64, indices).tolist()


class _Stub:
    """A generator whose ``random(n)`` hands out fixed uniform blocks in turn."""

    def __init__(self, *blocks):
        self.blocks = list(blocks)

    def random(self, n):
        return self.blocks.pop(0)


@pytest.mark.parametrize("shape", [(16,), (125, 1), (125, 2), (125, 8), (125, 16), (8192, 2)])
def test_complex_normals_equal_the_sum_of_their_parts(shape):
    # At verify's shapes, the one-buffer build equals first + 1j * second bit
    # for bit whenever no uniform is exactly 0.
    u1, u2 = np.random.default_rng(len(shape) + shape[-1]).random((2,) + shape)
    first, second = rng._box_muller(_Stub(u1, u2), shape[-1])
    got = rng.complex_normals(_Stub(u1, u2), shape[-1])
    assert got.dtype == np.complex128 and got.shape == shape
    assert got.tobytes() == (first + 1j * second).tobytes()


def test_complex_normals_at_zero_radius_keep_the_signs_of_their_parts():
    # A first uniform of exactly 0 gives radius sqrt(-0.0) = -0.0, so both
    # parts are signed zeros; they land in the result as they are.
    u2 = np.array([0.1, 0.3, 0.6, 0.9])  # one angle per quadrant
    first, second = rng._box_muller(_Stub(np.zeros(4), u2), 4)
    got = rng.complex_normals(_Stub(np.zeros(4), u2), 4)
    assert not got.any()
    assert got.real.tobytes() == first.tobytes()
    assert got.imag.tobytes() == second.tobytes()
    assert len(set(zip(np.signbit(got.real), np.signbit(got.imag)))) == 4
