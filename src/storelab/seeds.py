"""Deterministic RNG streams derived from a master seed and an index path.

Every Monte Carlo unit of work (a round, an episode, a warmup draw) gets its
own generator keyed by (master seed, path of indices), so results do not
depend on scheduling order or worker count.  ``stream`` builds one unit's
generator.  ``KeyedStreams`` keys a whole array of units at once, so a
chunk of hundreds of units builds no ``SeedSequence`` or generator per
unit: one whole-array pass of numpy's ``SeedSequence`` hash, restated here
with numpy's constants, gives every unit's ``PCG64`` seed words, and
iterating it re-keys one reused generator to each unit's state in turn,
bit for bit the generator ``stream`` builds.
"""

from __future__ import annotations

import copy
import math

import numpy as np

_UINT32 = 2**32
_MASK = _UINT32 - 1

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SHIFT = 16
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = 2**128 - 1


def stream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the work unit addressed by ``path``."""
    key = tuple(int(p) % _UINT32 for p in path)
    return np.random.default_rng(np.random.SeedSequence(int(master_seed), spawn_key=key))


def rng_from(seed) -> np.random.Generator:
    """Coerce an int, SeedSequence, or Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class KeyedStreams:
    """``stream(master_seed, *unit)`` for every unit of an index-array path, from one hash.

    Each entry of ``path`` is an int or an integer array; they broadcast
    together, and unit i is the i-th entry of the broadcast in C order.
    Entries are reduced mod 2**32 as ``stream`` reduces them.  Iterating
    yields one generator, re-keyed before each unit to the state that
    ``stream`` gives it, so draw from it before taking the next; the
    streams may be iterated again, from the first unit.  A slice gives the
    streams of those units without hashing again.  The streams keep each
    unit's eight state words, 32 bytes a unit, and build its ``PCG64``
    state when the unit is reached.
    """

    def __init__(self, master_seed: int, *path) -> None:
        seed = int(master_seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        key = [_key_word(entry) for entry in path]
        shape = np.broadcast_shapes(*(np.shape(word) for word in key))
        words = _words(seed)
        if path and len(words) < _POOL:  # SeedSequence pads a short entropy under a spawn key
            words += [0] * (_POOL - len(words))
        words += [np.broadcast_to(word, shape).ravel() if np.ndim(word) else word for word in key]
        units = math.prod(shape)
        state = _generate_state(_mix_entropy(words))
        self.words = np.array([np.broadcast_to(w, (units,)) for w in state], dtype=np.uint32)

    def __getitem__(self, units: slice) -> KeyedStreams:
        part = copy.copy(self)
        part.words = self.words[:, units]
        return part

    def __iter__(self):
        rng = np.random.Generator(np.random.PCG64(0))
        for unit in self.words.T:
            rng.bit_generator.state = _pcg64_state(*unit.tolist())
            yield rng


def _key_word(entry):
    """A path entry reduced mod 2**32: an int, or an integer array as a uint32 array."""
    if np.ndim(entry) == 0:
        return int(entry) % _UINT32
    return (np.asarray(entry).astype(np.int64) % _UINT32).astype(np.uint32)


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words of a non-negative int; 0 is one word."""
    out = [n & _MASK]
    n >>= 32
    while n:
        out.append(n & _MASK)
        n >>= 32
    return out


def _wrap(value):
    """A word mod 2**32: a Python int is masked, and a uint32 array has wrapped already."""
    return value & _MASK if isinstance(value, int) else value


def _mix_entropy(entropy: list) -> list:
    """``SeedSequence.mix_entropy`` of every unit at once: the four pool words.

    A word the same for every unit (the seed's, a padding zero, an int
    path entry) is a Python int, hashed once; a word that differs is a
    (units,) uint32 array, whose products wrap mod 2**32 as the C code's
    do.  The hash constant runs through the same values for every unit.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK
        value = _wrap(value * const)
        return value ^ (value >> _SHIFT)

    def mix(x, y):
        out = _wrap(_wrap(_MIX_L * x) - _wrap(_MIX_R * y))
        return out ^ (out >> _SHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, len(entropy)):
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    return pool


def _generate_state(pool: list) -> list:
    """``SeedSequence.generate_state(4, np.uint64)`` as its eight 32-bit words."""
    const = _INIT_B
    out = []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _MASK
        value = _wrap(value * const)
        out.append(value ^ (value >> _SHIFT))
    return out


def _pcg64_state(*words: int) -> dict:
    """The state ``PCG64`` seeds itself to from ``generate_state``'s eight words.

    The words pair into four little-endian 64-bit values: the first two
    are the 128-bit initial state, the last two the stream, and PCG's
    ``srandom`` steps the LCG twice.
    """
    value = [words[2 * i] | words[2 * i + 1] << 32 for i in range(_POOL)]
    initstate, initseq = value[0] << 64 | value[1], value[2] << 64 | value[3]
    inc = (initseq << 1 | 1) & _MASK128
    state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}
