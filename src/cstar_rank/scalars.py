"""The scalar rules of the package and the closed form of the stable rank.

Tolerances, the rule for tolerances and ``eps``, the rule for shapes, counts and
seeds, and :func:`sr_formula` need no arrays.  This module imports no numpy, so
that the command line can parse its options and answer ``sr-formula`` without
loading it; the numeric modules import these names from here.
"""

from __future__ import annotations

import math
import operator
import sys

#: Default relative threshold for invertibility: an element counts as
#: invertible when its margin, the smallest singular value over all blocks
#: divided by ``max(1, norm)``, exceeds ``tol``.
DEFAULT_TOL = 1e-9

#: Absolute residual accepted for the witness identities ``sum <y, x> = 1``.
WITNESS_TOL = 1e-8


def _shape_int(value) -> int:
    """A shape, count or seed as an ``int``; ``TypeError`` for ``bool`` and non-integers."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, not the boolean {value!r}")
    return operator.index(value)


def _require_positive_finite(name: str, value) -> None:
    """The one rule for tolerances and ``eps``: ``0 < value < inf``, else ``ValueError``;
    ``TypeError`` for ``bool`` and ``numpy.bool_``, which would pass as 1.0.  numpy is
    looked up, not imported: a value cannot be a ``numpy.bool_`` before numpy is loaded."""
    if isinstance(value, float) and 0.0 < value < math.inf:
        return
    np = sys.modules.get("numpy")
    if isinstance(value, bool) or (np is not None and isinstance(value, np.bool_)):
        raise TypeError(f"{name} must be a number, not the boolean {value!r}")
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def sr_formula(sr_a: int, n: int, m: int) -> int:
    """Stable rank of the ``n x m`` matrix module over a base of stable rank
    ``sr_a``: the ceiling of ``(sr_a + m - 1) / n``, an ``int``."""
    sr_a, n, m = _shape_int(sr_a), _shape_int(n), _shape_int(m)
    if sr_a < 1 or n < 1 or m < 1:
        raise ValueError("sr_formula needs positive arguments")
    return -(-(sr_a + m - 1) // n)
