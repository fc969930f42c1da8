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

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvertibilityError, ShapeMismatchError
from .sampling import complex_gaussian

#: Default relative threshold for invertibility: an element counts as
#: invertible when its margin, the smallest singular value over all blocks
#: divided by ``max(1, norm)``, exceeds ``tol``.
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
        sizes = tuple(operator.index(k) for k in self.block_sizes)
        if not sizes:
            raise ValueError("an algebra needs at least one block")
        if any(k < 1 for k in sizes):
            raise ValueError(f"block sizes must be positive, got {sizes}")
        object.__setattr__(self, "block_sizes", sizes)

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

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
        return AlgebraElement._wrap(
            self, [complex_gaussian(rng, (k, k)) for k in self.block_sizes]
        )

    def matrix_algebra(self, n: int) -> "Algebra":
        """The amplification M_n over this algebra; block sizes scale by n."""
        if operator.index(n) < 1:
            raise ValueError("matrix amplification needs n >= 1")
        return Algebra(tuple(n * k for k in self.block_sizes))

    def to_json_dict(self) -> dict:
        return {"blocks": list(self.block_sizes)}

    @classmethod
    def from_json_dict(cls, data) -> "Algebra":
        return cls(tuple(data["blocks"]))


def _require_positive_finite(name: str, value) -> None:
    """The one rule for tolerances and ``eps``: ``0 < value < inf``, else ``ValueError``."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


class _Blocks:
    """An immutable tuple of complex blocks with a cached norm.

    A subclass names its parent slot in ``_parent``, passes the block shapes
    its parent prescribes to ``__init__``, and defines ``_new`` (same parent,
    new blocks) and ``_require_same`` (operand of the same kind over an equal
    parent).
    """

    __slots__ = ("blocks", "_norm")

    def __init__(self, parent, blocks, shapes):
        blocks = tuple(blocks)
        if len(blocks) != len(shapes):
            raise ShapeMismatchError(
                f"expected {len(shapes)} blocks, got {len(blocks)}"
            )
        frozen = []
        for block, shape in zip(blocks, shapes):
            arr = np.array(block, dtype=np.complex128)
            if arr.shape != shape:
                raise ShapeMismatchError(
                    f"block has shape {arr.shape}, expected {shape}"
                )
            arr.setflags(write=False)
            frozen.append(arr)
        setattr(self, self._parent, parent)
        self.blocks = tuple(frozen)
        self._norm = None

    @classmethod
    def _wrap(cls, parent, blocks):
        # Trusted fast path for internally produced arrays; no copy, no check.
        el = cls.__new__(cls)
        setattr(el, cls._parent, parent)
        out = []
        for b in blocks:
            b = np.asarray(b, dtype=np.complex128)
            b.setflags(write=False)
            out.append(b)
        el.blocks = tuple(out)
        el._norm = None
        return el

    def __add__(self, other):
        self._require_same(other)
        return self._new([a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        self._require_same(other)
        return self._new([a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self):
        return self._new([-a for a in self.blocks])

    def __mul__(self, other):
        if isinstance(other, numbers.Number):
            z = complex(other)
            return self._new([z * a for a in self.blocks])
        return NotImplemented

    # Scalars commute with blocks.
    __rmul__ = __mul__

    def norm(self) -> float:
        """The largest singular value over all blocks.

        This is the operator norm of an algebra element and the Hilbert
        module norm of a module element.
        """
        if self._norm is None:
            self._norm = max(
                float(_svdvals(b)[0]) if b.size else 0.0 for b in self.blocks
            )
        return self._norm


class AlgebraElement(_Blocks):
    """One complex matrix per block of a parent :class:`Algebra`.

    Instances are immutable.  ``a * b`` is the algebra product, ``a + b`` the
    sum, scalars act blockwise, and ``a.adjoint()`` is the blockwise conjugate
    transpose.
    """

    __slots__ = ("algebra",)
    _parent = "algebra"

    def __init__(self, algebra: Algebra, blocks):
        super().__init__(algebra, blocks, [(k, k) for k in algebra.block_sizes])

    def _new(self, blocks):
        return AlgebraElement._wrap(self.algebra, blocks)

    def _require_same(self, other):
        if not isinstance(other, AlgebraElement):
            raise TypeError(f"expected an AlgebraElement, got {type(other).__name__}")
        if other.algebra != self.algebra:
            raise ShapeMismatchError("elements belong to different algebras")

    # -- product ------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._require_same(other)
            return self._new([a @ b for a, b in zip(self.blocks, other.blocks)])
        return _Blocks.__mul__(self, other)

    def __truediv__(self, other):
        if isinstance(other, numbers.Number):
            return self.__mul__(1.0 / complex(other))
        return NotImplemented

    # -- involution ---------------------------------------------------------

    def adjoint(self) -> "AlgebraElement":
        """Blockwise conjugate transpose; an exact involution."""
        return self._new([b.conj().T for b in self.blocks])

    def is_self_adjoint(self) -> bool:
        return (self - self.adjoint()).norm() <= SELF_ADJOINT_RTOL * self.norm()

    # -- invertible group ---------------------------------------------------

    def margin(self) -> float:
        """Smallest singular value over ``max(1, norm)``; invertible at ``tol`` iff above it."""
        try:
            svals = [_svdvals(b) for b in self.blocks]
        except np.linalg.LinAlgError:  # LAPACK gives up on NaN entries
            svals = [np.array([math.nan])]
        tops = [float(s[0]) for s in svals]
        bottoms = [float(s[-1]) for s in svals]
        # A sum is non-finite as soon as one term is, in any order.
        if not math.isfinite(sum(tops) + sum(bottoms)):
            raise DomainError("singular values are not finite (overflow or non-finite entries)")
        largest = max(tops)
        if self._norm is None:
            self._norm = largest
        return min(bottoms) / max(1.0, largest)

    def is_invertible(self, tol: float = DEFAULT_TOL) -> bool:
        """Whether :meth:`margin` exceeds ``tol``."""
        _require_positive_finite("tol", tol)
        return self.margin() > tol

    def inverse(self, tol: float = DEFAULT_TOL) -> "AlgebraElement":
        if not self.is_invertible(tol):
            raise InvertibilityError(
                f"element is numerically singular at tol={tol:g}"
            )
        return self._new([np.linalg.inv(b) for b in self.blocks])

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
        return self._new(out)

    def inv_sqrt(self, tol: float = DEFAULT_TOL) -> "AlgebraElement":
        """Inverse square root of a positive definite element.

        The result ``s`` is positive definite and satisfies ``s * a * s = 1``
        up to the conditioning of ``a``.
        """
        _require_positive_finite("tol", tol)
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
        return self._new(out)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"blocks": [matrix_to_json(b) for b in self.blocks]}

    @classmethod
    def from_json_dict(cls, algebra: Algebra, data) -> "AlgebraElement":
        return cls(algebra, [matrix_from_json(m) for m in data["blocks"]])

    def __repr__(self):
        sizes = "+".join(str(k) for k in self.algebra.block_sizes)
        return f"<AlgebraElement over M_[{sizes}], norm={self.norm():.4g}>"
