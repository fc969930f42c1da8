"""Seeded random generation helpers.

All randomness in the toolkit flows through a ``numpy.random.Generator``
seeded explicitly, and every draw is taken here.  Batch experiments derive
one independent seed per trial by XOR-ing the base seed with the trial index,
so results never depend on evaluation order.

The one seeding rule: a seed, reduced to 64 bits, seeds ``PCG64`` through
numpy's ``SeedSequence``, as :func:`rng_from_seed` does.  :func:`trial_draws`
hashes the state words of all its trials' sequences in one pass and hands each
trial's ``PCG64`` its row, so its bits are those of :func:`rng_from_seed`.

The one draw order: a random element with blocks of shapes ``(r_i, s_i)``
takes ``2 * sum r_i s_i`` standard normals in one call, block by block, the
real parts and then the imaginary parts, each row-major; ``k`` elements in a
row take ``k`` such runs.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1

# ``SeedSequence.generate_state``'s hash, as numpy writes it: output word j is
# pool word ``j % 4`` XOR ``INIT_B * MULT_B**j``, times ``INIT_B * MULT_B**(j+1)``,
# then XOR its own top 16 bits, all mod 2**32.  PCG64 takes 8 words, (2, 4) here.
_HASH = [0x8B51F9DD * pow(0x58F38DED, j, 1 << 32) % (1 << 32) for j in range(9)]
_HASH_XOR = np.array(_HASH[:8], dtype="<u4").reshape(2, 4)
_HASH_MULT = np.array(_HASH[1:], dtype="<u4").reshape(2, 4)


def derived_seed(seed: int, index: int) -> int:
    """Per-trial seed: base seed XOR trial index, as an unsigned 64-bit value."""
    return (int(seed) ^ int(index)) & _MASK64


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(seed) & _MASK64))


def draw_size(shapes) -> int:
    """Standard normals one random element with blocks of these shapes takes."""
    return 2 * sum(r * s for r, s in shapes)


def gaussian_blocks(draws, shapes):
    """Complex Gaussian blocks ``sqrt(1/2) (re + i im)`` read from standard normals.

    ``draws`` has shape ``(..., draw_size(shapes))`` and is read in the draw
    order; yields one ``(..., r, s)`` block at a time, so a batch never holds
    the complex copy of more than one block.
    """
    scale = math.sqrt(0.5)
    offset = 0
    for r, s in shapes:
        block = np.empty(draws.shape[:-1] + (r, s), dtype=np.complex128)
        for part in (block.real, block.imag):
            np.multiply(scale, draws[..., offset : offset + r * s].reshape(part.shape), out=part)
            offset += r * s
        yield block


def random_blocks(rng, shapes) -> list:
    """One random element's complex Gaussian blocks, drawn from ``rng`` in one call."""
    return list(gaussian_blocks(rng.standard_normal(draw_size(shapes)), shapes))


@functools.cache
def _state_words():
    """The ``ISeedSequence`` that hands ``PCG64`` words hashed beforehand, built
    on first use: importing ``numpy.random`` would add ~14 ms to every CLI run."""

    class StateWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return StateWords


def trial_draws(seed: int, trials: int, size: int) -> np.ndarray:
    """``(trials, size)`` standard normals; row ``i`` comes from seed ``seed XOR i``.

    Row ``i`` holds what ``rng_from_seed(derived_seed(seed, i))`` yields first,
    taken in one call.  Each trial's ``SeedSequence`` mixes its entropy, and
    the state words of all trials are hashed together.
    """
    words = np.empty((trials, 2, 4), dtype="<u4")
    for index in range(trials):
        words[index] = np.random.SeedSequence(derived_seed(seed, index)).pool
    words ^= _HASH_XOR
    words *= _HASH_MULT
    words ^= words >> 16
    states = words.reshape(trials, 8).view("<u8").astype(np.uint64, copy=False)
    draws = np.empty((trials, size))
    state_words = _state_words()
    for state, row in zip(states, draws):
        np.random.Generator(np.random.PCG64(state_words(state))).standard_normal(out=row)
    return draws
