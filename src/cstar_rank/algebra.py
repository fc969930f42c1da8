"""Finite-dimensional C*-algebras given as direct sums of complex matrix blocks.

An :class:`Algebra` records the block sizes ``(k1, ..., ks)`` of a direct sum
``M_k1(C) + ... + M_ks(C)``; an :class:`AlgebraElement` holds one complex
``k_i x k_i`` matrix per block.  Sums, products and adjoints act blockwise,
the norm is the largest singular value over all blocks, and spectral
operations (positive part, inverse square root) go through per-block
Hermitian eigendecompositions.  Elements are immutable, so values can be
shared freely between workers.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvertibilityError, ShapeMismatchError

#: Default relative threshold for invertibility: an element counts as
#: invertible when every block's smallest singular value exceeds
#: ``tol * max(1, norm)``.
DEFAULT_TOL = 1e-9

#: Relative tolerance for accepting an element as self-adjoint.
SELF_ADJOINT_RTOL = 1e-10


def _svdvals(block):
    if block.size == 0:
        return np.zeros(0)
    return np.linalg.svd(block, compute_uv=False)


def _hermitized(block):
    return (block + block.conj().T) / 2.0


def matrix_to_json(block) -> list:
    """Row-major nesting of ``[re, im]`` pairs, full double precision."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(block)]


def matrix_from_json(rows) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`; rejects infinite and NaN entries."""
    block = np.array(
        [[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128
    )
    if not np.isfinite(block).all():
        raise ValueError("matrix entries must be finite (found inf or nan)")
    return block


@dataclass(frozen=True)
class Algebra:
    """A finite-dimensional C*-algebra described by its matrix block sizes."""

    block_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(k) for k in self.block_sizes)
        if not sizes:
            raise ValueError("an algebra needs at least one block")
        if any(k < 1 for k in sizes):
            raise ValueError(f"block sizes must be positive, got {sizes}")
        object.__setattr__(self, "block_sizes", sizes)

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    @property
    def dimension(self) -> int:
        """Complex dimension, the sum of the squared block sizes."""
        return sum(k * k for k in self.block_sizes)

    def unit(self) -> "AlgebraElement":
        return AlgebraElement._wrap(
            self, [np.eye(k, dtype=np.complex128) for k in self.block_sizes]
        )

    def zero(self) -> "AlgebraElement":
        return AlgebraElement._wrap(
            self, [np.zeros((k, k), dtype=np.complex128) for k in self.block_sizes]
        )

    def element(self, blocks) -> "AlgebraElement":
        """Build an element from one square matrix per block (copies the data)."""
        return AlgebraElement(self, blocks)

    def random_element(self, rng) -> "AlgebraElement":
        """Element with i.i.d. standard complex Gaussian entries in every block."""
        root_half = np.sqrt(0.5)
        blocks = [
            root_half
            * (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
            for k in self.block_sizes
        ]
        return AlgebraElement._wrap(self, blocks)

    def matrix_algebra(self, n: int) -> "Algebra":
        """The amplification M_n over this algebra; block sizes scale by n."""
        if n < 1:
            raise ValueError("matrix amplification needs n >= 1")
        return Algebra(tuple(n * k for k in self.block_sizes))

    def to_json_dict(self) -> dict:
        return {"blocks": list(self.block_sizes)}

    @classmethod
    def from_json_dict(cls, data) -> "Algebra":
        return cls(tuple(data["blocks"]))


class AlgebraElement:
    """One complex matrix per block of a parent :class:`Algebra`.

    Instances are immutable.  ``a * b`` is the algebra product, ``a + b`` the
    sum, scalars act blockwise, and ``a.adjoint()`` is the blockwise conjugate
    transpose.
    """

    __slots__ = ("algebra", "blocks", "_norm")

    def __init__(self, algebra: Algebra, blocks):
        blocks = tuple(blocks)
        if len(blocks) != algebra.num_blocks:
            raise ShapeMismatchError(
                f"expected {algebra.num_blocks} blocks, got {len(blocks)}"
            )
        frozen = []
        for block, size in zip(blocks, algebra.block_sizes):
            arr = np.array(block, dtype=np.complex128)
            if arr.shape != (size, size):
                raise ShapeMismatchError(
                    f"block has shape {arr.shape}, expected {(size, size)}"
                )
            arr.setflags(write=False)
            frozen.append(arr)
        self.algebra = algebra
        self.blocks = tuple(frozen)
        self._norm = None

    @classmethod
    def _wrap(cls, algebra, blocks):
        # Trusted fast path for internally produced arrays; no copy, no check.
        el = cls.__new__(cls)
        el.algebra = algebra
        out = []
        for b in blocks:
            b = np.asarray(b, dtype=np.complex128)
            b.setflags(write=False)
            out.append(b)
        el.blocks = tuple(out)
        el._norm = None
        return el

    def _require_same_algebra(self, other):
        if not isinstance(other, AlgebraElement):
            raise TypeError(f"expected an AlgebraElement, got {type(other).__name__}")
        if other.algebra != self.algebra:
            raise ShapeMismatchError("elements belong to different algebras")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        self._require_same_algebra(other)
        return AlgebraElement._wrap(
            self.algebra, [a + b for a, b in zip(self.blocks, other.blocks)]
        )

    def __sub__(self, other):
        self._require_same_algebra(other)
        return AlgebraElement._wrap(
            self.algebra, [a - b for a, b in zip(self.blocks, other.blocks)]
        )

    def __neg__(self):
        return AlgebraElement._wrap(self.algebra, [-a for a in self.blocks])

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._require_same_algebra(other)
            return AlgebraElement._wrap(
                self.algebra, [a @ b for a, b in zip(self.blocks, other.blocks)]
            )
        if isinstance(other, numbers.Number):
            z = complex(other)
            return AlgebraElement._wrap(self.algebra, [z * a for a in self.blocks])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Number):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, numbers.Number):
            return self.__mul__(1.0 / complex(other))
        return NotImplemented

    # -- involution and norms ---------------------------------------------

    def adjoint(self) -> "AlgebraElement":
        """Blockwise conjugate transpose; an exact involution."""
        return AlgebraElement._wrap(self.algebra, [b.conj().T for b in self.blocks])

    def norm(self) -> float:
        """Operator norm: the largest singular value over all blocks."""
        if self._norm is None:
            self._norm = max(
                float(_svdvals(b)[0]) if b.size else 0.0 for b in self.blocks
            )
        return self._norm

    def is_self_adjoint(self, rtol: float = SELF_ADJOINT_RTOL) -> bool:
        return (self - self.adjoint()).norm() <= rtol * self.norm()

    # -- invertible group ---------------------------------------------------

    def is_invertible(self, tol: float = DEFAULT_TOL) -> bool:
        """Whether every block's smallest singular value clears ``tol * max(1, norm)``."""
        if tol <= 0:
            raise ValueError("tol must be positive")
        svals = [_svdvals(b) for b in self.blocks]
        largest = max((float(s[0]) if s.size else 0.0) for s in svals)
        if self._norm is None:
            self._norm = largest
        threshold = tol * max(1.0, largest)
        return all(float(s[-1]) > threshold for s in svals if s.size)

    def inverse(self, tol: float = DEFAULT_TOL) -> "AlgebraElement":
        if not self.is_invertible(tol):
            raise InvertibilityError(
                f"element is numerically singular at tol={tol:g}"
            )
        return AlgebraElement._wrap(
            self.algebra, [np.linalg.inv(b) for b in self.blocks]
        )

    # -- functional calculus -----------------------------------------------

    def eigenvalues(self) -> tuple:
        """Per-block eigenvalues (ascending) of a self-adjoint element."""
        if not self.is_self_adjoint():
            raise DomainError("eigenvalues are only computed for self-adjoint elements")
        return tuple(np.linalg.eigvalsh(_hermitized(b)) for b in self.blocks)

    def positive_part(self) -> "AlgebraElement":
        """Spectral positive part: keep nonnegative eigenvalues, zero the rest.

        The decomposition ``a = a.positive_part() - (-a).positive_part()`` has
        orthogonal summands up to roundoff.
        """
        if not self.is_self_adjoint():
            residual = (self - self.adjoint()).norm()
            raise DomainError(
                f"positive_part needs a self-adjoint element; "
                f"anti-hermitian residual {residual:g}"
            )
        out = []
        for b in self.blocks:
            w, v = np.linalg.eigh(_hermitized(b))
            clipped = np.clip(w, 0.0, None)
            c = (v * clipped) @ v.conj().T
            out.append(_hermitized(c))
        return AlgebraElement._wrap(self.algebra, out)

    def inv_sqrt(self, tol: float = DEFAULT_TOL) -> "AlgebraElement":
        """Inverse square root of a positive definite element.

        The result ``s`` is positive definite and satisfies ``s * a * s = 1``
        up to the conditioning of ``a``.
        """
        if not self.is_self_adjoint():
            raise DomainError("inv_sqrt needs a self-adjoint element")
        threshold = tol * max(1.0, self.norm())
        out = []
        for b in self.blocks:
            w, v = np.linalg.eigh(_hermitized(b))
            if w.size and w[0] <= threshold:
                raise DomainError(
                    f"inv_sqrt needs a positive definite element; "
                    f"smallest eigenvalue {w[0]:g} at threshold {threshold:g}"
                )
            c = (v * (w ** -0.5)) @ v.conj().T
            out.append(_hermitized(c))
        return AlgebraElement._wrap(self.algebra, out)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"blocks": [matrix_to_json(b) for b in self.blocks]}

    @classmethod
    def from_json_dict(cls, algebra: Algebra, data) -> "AlgebraElement":
        return cls(algebra, [matrix_from_json(m) for m in data["blocks"]])

    def __repr__(self):
        sizes = "+".join(str(k) for k in self.algebra.block_sizes)
        return f"<AlgebraElement over M_[{sizes}], norm={self.norm():.4g}>"
