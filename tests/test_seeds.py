"""``KeyedStreams`` keys an array of units to the generators ``stream`` builds, bit for bit."""

import numpy as np
import pytest

from storelab.seeds import KeyedStreams, stream

# one-word seeds at both ends of the word, two- and three-word seeds, and one of
# five words, whose run entropy spills past SeedSequence's four-word pool
SEEDS = (0, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 12345)

PATHS = [
    (np.arange(6),),
    (-1,),
    (1, np.arange(-3, 4)),  # negative entries are reduced mod 2**32, as stream reduces them
    (np.array([[0], [2**32 + 3], [-(2**40)]]), np.arange(3)),
    (4, np.array([5, -7])[:, None], np.arange(2)),
    (3, 2, 1),
]


def _units(path):
    """Each unit of a broadcast path as a tuple of Python ints, in C order."""
    return list(zip(*(a.ravel().tolist() for a in np.broadcast_arrays(*path))))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("path", PATHS)
def test_states_and_draws_equal_stream(seed, path):
    streams = KeyedStreams(seed, *path)
    units = _units(path)
    for _ in range(2):  # the streams may be iterated again, from the first unit
        count = 0
        for rng, unit in zip(streams, units):
            want = stream(seed, *unit)
            assert rng.bit_generator.state == want.bit_generator.state
            assert rng.random(3).tobytes() == want.random(3).tobytes()
            assert rng.standard_normal(5).tobytes() == want.standard_normal(5).tobytes()
            count += 1
        assert count == len(units)
    assert sum(1 for _ in streams) == len(units)


@pytest.mark.parametrize("seed", SEEDS)
def test_an_empty_path_is_the_seed_alone(seed):
    (rng,) = KeyedStreams(seed)
    assert rng.bit_generator.state == stream(seed).bit_generator.state


def test_no_units_give_no_streams():
    assert list(KeyedStreams(7, 1, np.arange(0))) == []


def test_a_negative_seed_is_rejected_as_stream_rejects_it():
    with pytest.raises(ValueError) as want:
        stream(-1, 0)
    with pytest.raises(ValueError) as got:
        KeyedStreams(-1, np.arange(2))
    assert str(got.value) == str(want.value)


def test_a_slice_keys_its_units_as_the_whole_does():
    streams = KeyedStreams(2**64 + 5, 3, np.arange(10))
    for rng, unit in zip(streams[3:7], range(3, 7)):
        assert rng.bit_generator.state == stream(2**64 + 5, 3, unit).bit_generator.state
    assert sum(1 for _ in streams[3:7]) == 4
    assert sum(1 for _ in streams) == 10
