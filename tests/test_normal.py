"""latticelight.normal draws numpy's default_rng(seed).standard_normal stream bit for bit.

The ziggurat table is checked, not trusted: it is rebuilt from numpy's own
draws.  A fast-path or accepted wedge draw is exactly x = fl(rabs * wi[idx]),
with idx and rabs read from the raw PCG64 word it consumed, so the draws of
one box pin wi[idx] to a single double.
"""

import math
import statistics
from itertools import islice

import numpy as np
import pytest

from latticelight import normal
from latticelight.normal import standard_normal

SEEDS = [*range(200), 2**32 - 1, 2**32, 2**64 + 5, 10**30]


def recovered_abscissae():
    """numpy's 256 wi_double[i] * 2^52, from (raw word, draw) pairs that start at the same PCG64 state."""
    samples = [[] for _ in range(256)]
    for seed in range(4):
        bits = np.random.PCG64(seed)
        draws = np.random.Generator(bits)
        for _ in range(256 * 30):
            state = bits.state
            x = draws.standard_normal()
            bits.state = state
            word = int(bits.random_raw())
            rabs = word >> 9 & 0x000FFFFFFFFFFFFF
            if rabs:
                samples[word & 0xFF].append((rabs, abs(x)))
    table = []
    for pairs in samples:
        # most draws of a box leave through x = rabs * wi: the median ratio is within an ulp or two of wi
        guess = statistics.median(x / rabs for rabs, x in pairs)
        exact = [(rabs, x) for rabs, x in pairs if abs(x / rabs - guess) <= 1e-13 * guess]
        w = guess
        for _ in range(64):
            w = math.nextafter(w, 0.0)
        fits = []
        for _ in range(129):
            if all(rabs * w == x for rabs, x in exact):
                fits.append(w)
            w = math.nextafter(w, 1.0)
        assert len(fits) == 1, f"wi is not pinned to one double: {fits}"
        table.append(math.ldexp(fits[0], 52))
    return tuple(table)


def test_the_embedded_table_is_numpys():
    assert recovered_abscissae() == normal._X


def test_derived_box_edges_are_numpys():
    # ki_double[0], [1] and [2] of numpy's ziggurat_constants.h
    assert normal._KI[:3] == (0x000EF33D8025EF6A, 0, 0x000C08BE98FBC6A8)
    assert normal._X[255] == 3.6541528853610088  # ziggurat_nor_r


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 + 5, 10**30, 2**200 + 17])
def test_raw_words_are_pcg64s(seed):
    assert list(islice(normal._raw(seed), 20)) == [int(w) for w in np.random.PCG64(seed).random_raw(20)]


def test_draws_equal_numpy_bit_for_bit_across_seeds():
    for seed in SEEDS:
        want = np.random.default_rng(seed).standard_normal(1024)
        assert standard_normal(seed, 1024).tobytes() == want.tobytes(), seed


def test_a_long_stream_equals_numpy_and_reaches_the_tail():
    count = 3_000_000
    draws = standard_normal(20_260, count)
    assert draws.tobytes() == np.random.default_rng(20_260).standard_normal(count).tobytes()
    # a draw past r can only come from the tail branch: 725 of them here
    assert sum(abs(x) > normal._R for x in draws) > 100


def test_count_and_seed_edges():
    assert len(standard_normal(5, 0)) == 0
    with pytest.raises(ValueError, match="seed must be >= 0"):
        standard_normal(-1, 3)
