"""Finite-dimensional C*-algebras given as direct sums of complex matrix blocks.

An :class:`Algebra` records the block sizes ``(k1, ..., ks)`` of a direct sum
``M_k1(C) + ... + M_ks(C)``; an :class:`AlgebraElement` holds one complex
``k_i x k_i`` matrix per block.  Sums, products and adjoints act blockwise,
the norm is the largest singular value over all blocks, and spectral
operations (positive part, inverse square root) go through per-block
Hermitian eigendecompositions.  Every LAPACK call of the package goes through
:func:`_lapack`, which refuses non-finite blocks before LAPACK sees them and
turns LAPACK's failures into ``DomainError``.  Elements are immutable, so
values can be shared freely between workers.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CstarRankError, DomainError, InvertibilityError, ShapeMismatchError, _InputError
from .sampling import random_blocks
from .scalars import DEFAULT_TOL, _require_positive_finite, _shape_int

#: Relative tolerance for accepting an element as self-adjoint.
SELF_ADJOINT_RTOL = 1e-10

#: The one non-finite refusal of the spectral routines.
_NOT_FINITE = "singular values are not finite (overflow or non-finite entries)"


def _lapack(routine: str, blocks, **options) -> list:
    """``np.linalg.<routine>(b, **options)`` per block, the one LAPACK boundary: non-finite
    blocks raise the non-finite ``DomainError`` before LAPACK sees them (it would print to
    stdout), and a ``LinAlgError`` becomes a ``DomainError`` naming the routine and reason."""
    if not all(np.isfinite(b).all() for b in blocks):
        raise DomainError(_NOT_FINITE)
    try:
        return [getattr(np.linalg, routine)(b, **options) for b in blocks]
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"LAPACK {routine} failed: {exc}") from None


def _extreme_svals(blocks) -> tuple[list, list]:
    """Largest and smallest singular value of each nonempty matrix of ``blocks``, as floats from
    one SVD per block.  ``DomainError`` unless all extremes are finite: beside the non-finite
    blocks that :func:`_lapack` refuses, finite ones can overflow.  Gram sums take theirs from
    ``eigvalsh`` in ``hilbert_module``, under the same rule."""
    values = _lapack("svd", blocks, compute_uv=False)
    tops, bottoms = [float(s[0]) for s in values], [float(s[-1]) for s in values]
    # Each extreme on its own: a sum of finite ones may overflow.
    if not all(map(math.isfinite, tops + bottoms)):
        raise DomainError(_NOT_FINITE)
    return tops, bottoms


def _shifted_polar(blocks, shift) -> tuple[list, list]:
    """Per tall block ``Z = U S V*``, with polar isometry ``W = U V*``, the pair
    ``W (|Z| + shift) = U (S + shift) V*`` and ``W (|Z| + shift)^{-1}``, which pair
    to the unit: one thin SVD per block, under :func:`_extreme_svals`'s non-finite rule."""
    factors = _lapack("svd", blocks, full_matrices=False)
    if not all(np.isfinite(s).all() for _, s, _ in factors):
        raise DomainError(_NOT_FINITE)
    return ([(u * (s + shift)) @ vh for u, s, vh in factors],
            [(u / (s + shift)) @ vh for u, s, vh in factors])


def _gate_norm(blocks, bound) -> float:
    """A norm of ``blocks`` only compared with ``bound``: the Frobenius norm, an
    upper bound of the SVD norm, when it clears ``bound`` by a relative 1e-10,
    far above rounding, and so decides every comparison as the SVD would; else
    the SVD norm, exactly 0 for zero blocks.  A sum of squares that overflows,
    underflows or is NaN takes the SVD; the squares are added as Python
    floats, which overflow to inf without numpy's overflow warning."""
    squares = sum(float(np.vdot(b, b).real) for b in blocks)
    if 1e-290 < squares < math.inf and math.sqrt(squares) <= bound * (1.0 - 1e-10):
        return math.sqrt(squares)
    if squares == 0.0 and not any(b.any() for b in blocks):
        return 0.0
    return max(_extreme_svals(blocks)[0])


def _margin(tops, bottoms):
    """The one invertibility rule: the smallest singular value over all blocks
    divided by ``max(1, largest)``, from the extremes of one matrix per block,
    or of one stack per block, which gives one margin per matrix of the stack."""
    return functools.reduce(np.minimum, bottoms) / np.maximum(1.0, functools.reduce(np.maximum, tops))


def _hermitized(block):
    return (block + block.conj().T) / 2.0


def _hermitian_calculus(blocks):
    """``f -> [v f(w) v* per block]``, from one eigendecomposition ``v w v*`` of each
    block's hermitized part, taken here; ``f`` maps the ascending eigenvalues and may raise."""
    pairs = _lapack("eigh", [_hermitized(b) for b in blocks])
    return lambda f: [_hermitized((v * f(w)) @ v.conj().T) for w, v in pairs]


def matrix_to_json(block) -> list:
    """Row-major nesting of ``[re, im]`` pairs, full double precision."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(block)]


def _json_entry(re, im) -> complex:
    if isinstance(re, bool) or isinstance(im, bool):  # complex(True, 0) is 1
        raise TypeError(f"matrix entries must be numbers, not booleans: [{re!r}, {im!r}]")
    return complex(re, im)


def matrix_from_json(rows) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`; rejects boolean, infinite and NaN entries."""
    block = np.array(
        [[_json_entry(re, im) for re, im in row] for row in rows], dtype=np.complex128
    )
    if not np.isfinite(block).all():
        raise ValueError("matrix entries must be finite (found inf or nan)")
    return block


class _Json:
    """A node of an input document and its JSON path, ``$`` at the root: the one reader of input.
    Each refusal, its own or that of a constructor it runs, is an ``_InputError`` naming the path."""

    __slots__ = ("value", "path")

    def __init__(self, value, path="$"):
        self.value, self.path = value, path

    @classmethod
    def of(cls, data) -> "_Json":
        return data if isinstance(data, cls) else cls(data)

    def __getitem__(self, key: str) -> "_Json":
        if not isinstance(self.value, dict) or key not in self.value:
            raise _InputError(f'{self.path} must be a JSON object with "{key}"')
        return self._child(self.value[key], f"{self.path}.{key}")

    def get(self, key: str):
        """The child at ``key``, or ``None`` where it is missing or null or this is no object."""
        return self[key] if isinstance(self.value, dict) and self.value.get(key) is not None else None

    def items(self) -> list:
        if not isinstance(self.value, list) or not self.value:
            raise _InputError(f"{self.path} must be a nonempty JSON list")
        return [self._child(v, f"{self.path}[{i}]") for i, v in enumerate(self.value)]

    @staticmethod
    def _child(value, path: str) -> "_Json":
        """A node below this one; no key or item of an input is null, so a null one is refused by its path."""
        if value is None:
            raise _InputError(f"{path} must not be null")
        return _Json(value, path)

    def shape(self) -> int:
        if type(self.value) is not int:
            raise _InputError(f"{self.path} must be a JSON integer")
        return self.value

    def matrix(self) -> np.ndarray:
        """:func:`matrix_from_json` of this node; its refusal names the first row or ``[re, im]``
        pair of this node that cannot be read, where there is one."""
        try:
            return matrix_from_json(self.value)
        except (TypeError, ValueError, OverflowError) as exc:
            rows = self.items()
            for row in rows:
                for pair in row.items():
                    if not (isinstance(pair.value, list) and len(pair.value) == 2 and all(
                            type(v) in (int, float) and abs(v) <= sys.float_info.max for v in pair.value)):
                        raise _InputError(f"{pair.path} must be a [re, im] pair of finite numbers") from None
                if len(row.value) != len(rows[0].value):
                    raise _InputError(f"{row.path} must hold as many pairs as {rows[0].path}") from None
            raise _InputError(f"{self.path}: {exc}") from None

    def build(self, make, *args):
        """``make(*args)``, whose refusal comes back as this node's; an ``OverflowError`` is a
        JSON integer too large for a float."""
        try:
            return make(*args)
        except (TypeError, ValueError, OverflowError, CstarRankError) as exc:
            raise _InputError(f"{self.path}: {exc}") from None


@dataclass(frozen=True)
class Algebra:
    """A finite-dimensional C*-algebra described by its matrix block sizes."""

    block_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(_shape_int(k) for k in self.block_sizes)
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
            self, random_blocks(rng, [(k, k) for k in self.block_sizes])
        )

    def matrix_algebra(self, n: int) -> "Algebra":
        """The amplification M_n over this algebra; block sizes scale by n."""
        if _shape_int(n) < 1:
            raise ValueError("matrix amplification needs n >= 1")
        return Algebra(tuple(n * k for k in self.block_sizes))

    def to_json_dict(self) -> dict:
        return {"blocks": list(self.block_sizes)}

    @classmethod
    def from_json_dict(cls, data) -> "Algebra":
        node = _Json.of(data)
        return node.build(cls, tuple(k.shape() for k in node["blocks"].items()))


def _require_same_parent(a, b, message: str) -> None:
    """The one parent comparison: ``ShapeMismatchError(message)`` unless ``a`` is or equals ``b``."""
    if a is not b and a != b:
        raise ShapeMismatchError(message)


class _Blocks:
    """An immutable tuple of nonempty complex blocks over a parent; nothing about them is cached.

    Algebra elements, module elements and coefficient arrays are its kinds.  A
    subclass names its parent slot in ``_parent`` and its operand wording in
    ``_kind`` and ``_foreign``, and passes the block shapes its parent
    prescribes to ``__init__``.  An operand is of the same kind over an equal
    parent, with blocks of the same shape.
    """

    __slots__ = ("blocks",)

    def __init__(self, parent, blocks, shapes):
        blocks = tuple(blocks)
        if len(blocks) != len(shapes):
            raise ShapeMismatchError(f"expected {len(shapes)} blocks, got {len(blocks)}")
        copies = []
        for block, shape in zip(blocks, shapes):
            arr = np.array(block, dtype=np.complex128)
            if arr.shape != shape:
                raise ShapeMismatchError(f"block has shape {arr.shape}, expected {shape}")
            copies.append(arr)
        self._hold(parent, copies)

    @classmethod
    def _wrap(cls, parent, blocks):
        # Trusted fast path for internally produced arrays; no copy, no check.
        el = cls.__new__(cls)
        el._hold(parent, blocks)
        return el

    def _hold(self, parent, blocks):
        """The one freezing rule: ``blocks`` as read-only complex arrays over ``parent``."""
        setattr(self, self._parent, parent)
        self.blocks = tuple(np.asarray(b, dtype=np.complex128) for b in blocks)
        for b in self.blocks:
            b.setflags(write=False)

    def _new(self, blocks):
        return self._wrap(getattr(self, self._parent), blocks)

    def _require_same(self, other):
        if not isinstance(other, type(self)):
            raise TypeError(f"expected {self._kind}, got {type(other).__name__}")
        _require_same_parent(getattr(self, self._parent), getattr(other, other._parent), self._foreign)
        if self.blocks[0].shape != other.blocks[0].shape:
            raise ShapeMismatchError(self._foreign)

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
        module norm of a module element.  Non-finite singular values raise
        ``DomainError``.
        """
        return max(_extreme_svals(self.blocks)[0])

    def _norm_text(self) -> str:
        # For ``repr``, which must not raise: no number for non-finite entries.
        try:
            return f"{self.norm():.4g}"
        except DomainError:
            return "non-finite"


class AlgebraElement(_Blocks):
    """One complex matrix per block of a parent :class:`Algebra`.

    Instances are immutable.  ``a * b`` is the algebra product, ``a + b`` the
    sum, scalars act blockwise, and ``a.adjoint()`` is the blockwise conjugate
    transpose.
    """

    __slots__ = ("algebra",)
    _parent = "algebra"
    _kind, _foreign = "an AlgebraElement", "elements belong to different algebras"

    def __init__(self, algebra: Algebra, blocks):
        super().__init__(algebra, blocks, [(k, k) for k in algebra.block_sizes])

    # -- product ------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._require_same(other)
            return self._new([a @ b for a, b in zip(self.blocks, other.blocks)])
        return _Blocks.__mul__(self, other)

    # -- involution ---------------------------------------------------------

    def adjoint(self) -> "AlgebraElement":
        """Blockwise conjugate transpose; an exact involution."""
        return self._new([b.conj().T for b in self.blocks])

    def is_self_adjoint(self) -> bool:
        return self._is_self_adjoint_at(self.norm())

    def _is_self_adjoint_at(self, norm: float) -> bool:
        # ``norm`` is this element's norm, taken once by callers that need it again.
        bound = SELF_ADJOINT_RTOL * norm
        return _gate_norm((self - self.adjoint()).blocks, bound) <= bound

    # -- invertible group ---------------------------------------------------

    def margin(self) -> float:
        """Smallest singular value over ``max(1, norm)``; invertible at ``tol`` iff above it."""
        return float(_margin(*_extreme_svals(self.blocks)))

    def is_invertible(self, tol: float = DEFAULT_TOL) -> bool:
        """Whether :meth:`margin` exceeds ``tol``."""
        _require_positive_finite("tol", tol)
        return self.margin() > tol

    def inverse(self, tol: float = DEFAULT_TOL) -> "AlgebraElement":
        if not self.is_invertible(tol):
            raise InvertibilityError(f"element is numerically singular at tol={tol:g}")
        return self._new(_lapack("inv", self.blocks))

    # -- functional calculus -----------------------------------------------

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
        return self._new(_hermitian_calculus(self.blocks)(lambda w: np.clip(w, 0.0, None)))

    def inv_sqrt(self, tol: float = DEFAULT_TOL) -> "AlgebraElement":
        """Inverse square root of a positive definite element.

        The result ``s`` is positive definite and satisfies ``s * a * s = 1``
        up to the conditioning of ``a``.
        """
        _require_positive_finite("tol", tol)
        norm = self.norm()
        if not self._is_self_adjoint_at(norm):
            raise DomainError("inv_sqrt needs a self-adjoint element")

        def inverse_root(w):
            margin = _margin([norm], [w[0]])
            if margin <= tol:
                raise DomainError(
                    f"inv_sqrt needs a positive definite element; "
                    f"smallest eigenvalue {w[0]:g}, margin {margin:g} at tol={tol:g}"
                )
            return w ** -0.5

        return self._new(_hermitian_calculus(self.blocks)(inverse_root))

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"blocks": [matrix_to_json(b) for b in self.blocks]}

    @classmethod
    def from_json_dict(cls, algebra: Algebra, data) -> "AlgebraElement":
        node = _Json.of(data)
        return node.build(cls, algebra, [m.matrix() for m in node["blocks"].items()])

    def __repr__(self):
        sizes = "+".join(str(k) for k in self.algebra.block_sizes)
        return f"<AlgebraElement over M_[{sizes}], norm={self._norm_text()}>"
