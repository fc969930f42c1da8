"""Seeded random generation helpers.

All randomness in the toolkit flows through a ``numpy.random.Generator``
seeded explicitly, and every draw is taken here.  Batch experiments derive
one independent seed per trial by XOR-ing the base seed with the trial index,
so results never depend on evaluation order.

The one seeding rule: a seed, reduced to 64 bits, seeds ``PCG64`` through
numpy's ``SeedSequence``, as :func:`rng_from_seed` does.  Below 5 trials each
row of :func:`trial_draws` is :func:`rng_from_seed`'s draw; from 5 on, one pass
mixes the entropy pools of all trials and hashes their state words, and each
trial's ``PCG64`` takes its row, with the bits of :func:`rng_from_seed`.

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

# numpy's ``SeedSequence`` as it writes it, in uint32 arithmetic mod 2**32.
# Each hash step XORs a word with one constant, multiplies by a second and
# XORs the product with its own top 16 bits, as :func:`_hashed` does.
#
# ``generate_state``: output word j hashes pool word ``j % 4`` with
# ``INIT_B * MULT_B**j`` and ``INIT_B * MULT_B**(j+1)``.  PCG64 takes 8 words,
# (2, 4) here.
_HASH = [0x8B51F9DD * pow(0x58F38DED, j, 1 << 32) % (1 << 32) for j in range(9)]
_HASH_XOR = np.array(_HASH[:8], dtype="<u4").reshape(2, 4)
_HASH_MULT = np.array(_HASH[1:], dtype="<u4").reshape(2, 4)

# The entropy mixing that fills the pool: hash step i takes ``INIT_A * MULT_A**i``
# and ``INIT_A * MULT_A**(i+1)``.  Steps 0-3 hash the seed's low and high word
# and two zeros into the pool; a seed below 2**32 has one word and mixes as if
# its high word were 0.  Then round ``src`` of 4 hashes pool word ``src`` with
# steps ``4 + 3 src`` to ``6 + 3 src``, one per other word ``dst`` in order, and
# sets ``dst`` to ``L dst - R hash``, XORed with its own top 16 bits.
_MIX = [0x43B0D7E5 * pow(0x931E8875, j, 1 << 32) % (1 << 32) for j in range(17)]
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)


def _round_constants(first):
    """Per round, ``(4, 4, 1)``: step ``first + 3 src + d`` at the d-th other
    word, and 0 at ``src``, whose word the round keeps."""
    rows = []
    for src in range(4):
        steps = iter(_MIX[first + 3 * src :])
        rows.append([0 if dst == src else next(steps) for dst in range(4)])
    return np.array(rows, dtype="<u4").reshape(4, 4, 1)


_FILL_XOR = np.array(_MIX[:4], dtype="<u4").reshape(4, 1)
_FILL_MULT = np.array(_MIX[1:5], dtype="<u4").reshape(4, 1)
_ROUND_XOR = _round_constants(4)
_ROUND_MULT = _round_constants(5)

# Trials from which :func:`trial_draws` seeds in one pass.  Timed interleaved on
# one CPU (py3.11, numpy 2.4), the pass costs about 60 us plus 5 us a trial and
# the :func:`rng_from_seed` loop 17-20 us a trial: they break even at 5 trials.
_POOL_PASS_TRIALS = 5


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

    ``draws`` has shape ``(..., draw_size(shapes))`` and is read in the draw order; yields one
    ``(..., r, s)`` block at a time, so a space's density trial stacks, which the Cholesky bracket
    and the fallback's margins (the tuples' own pairing on a trial axis) share, hold one block.
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


def _hashed(words, xor, mult):
    """One hash step of uint32 ``words`` (a new array); see the tables above."""
    words = words ^ xor
    words *= mult
    words ^= words >> 16
    return words


def _pools(seed: int, trials: int) -> np.ndarray:
    """``(trials, 4)`` uint32: row ``i`` is the entropy pool that numpy's
    ``SeedSequence`` mixes from ``derived_seed(seed, i)``, all rows in one pass
    over a ``(4, trials)`` array."""
    seeds = np.arange(trials, dtype="<u8")
    seeds ^= np.uint64(derived_seed(seed, 0))
    pool = np.zeros((4, trials), dtype="<u4")
    pool[:2] = seeds.view("<u4").reshape(trials, 2).T
    pool = _hashed(pool, _FILL_XOR, _FILL_MULT)
    for src in range(4):
        kept = pool[src].copy()
        mixed = _hashed(kept, _ROUND_XOR[src], _ROUND_MULT[src])
        mixed *= _MIX_R
        pool *= _MIX_L
        pool -= mixed
        pool ^= pool >> 16
        pool[src] = kept
    return np.ascontiguousarray(pool.T)


def trial_draws(seed: int, trials: int, size: int) -> np.ndarray:
    """``(trials, size)`` standard normals; row ``i`` comes from seed ``seed XOR i``.

    Row ``i`` holds what ``rng_from_seed(derived_seed(seed, i))`` yields first,
    taken in one call.  Below ``_POOL_PASS_TRIALS`` trials each row is that
    generator's draw; from it on, the entropy pools of all trials are mixed in
    one pass and their state words are hashed together.
    """
    try:
        draws = np.empty((trials, size))
    except ValueError as exc:  # a shape past numpy's index range is too big to draw
        raise MemoryError(f"{trials} x {size} draws: {exc}") from None
    if trials < _POOL_PASS_TRIALS:
        for index, row in enumerate(draws):
            rng_from_seed(derived_seed(seed, index)).standard_normal(out=row)
        return draws
    words = _hashed(_pools(seed, trials)[:, None], _HASH_XOR, _HASH_MULT)
    states = words.reshape(trials, 8).view("<u8").astype(np.uint64, copy=False)
    state_words = _state_words()
    for state, row in zip(states, draws):
        np.random.Generator(np.random.PCG64(state_words(state))).standard_normal(out=row)
    return draws
