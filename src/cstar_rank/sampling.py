"""Seeded random generation helpers.

All randomness in the toolkit flows through a ``numpy.random.Generator``
seeded explicitly, and every draw is taken here.  Batch experiments derive
one independent seed per trial by XOR-ing the base seed with the trial index,
so results never depend on evaluation order.

The one draw order: a random element with blocks of shapes ``(r_i, s_i)``
takes ``2 * sum r_i s_i`` standard normals in one call, block by block, the
real parts and then the imaginary parts, each row-major; ``k`` elements in a
row take ``k`` such runs.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1


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


def trial_draws(seed: int, trials: int, size: int) -> np.ndarray:
    """``(trials, size)`` standard normals; row ``i`` comes from seed ``seed XOR i``.

    Row ``i`` holds what ``rng_from_seed(derived_seed(seed, i))`` yields first,
    taken in one call.
    """
    draws = np.empty((trials, size))
    for index, row in enumerate(draws):
        rng_from_seed(derived_seed(seed, index)).standard_normal(out=row)
    return draws
