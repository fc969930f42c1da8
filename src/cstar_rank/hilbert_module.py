"""Matrix Hilbert C*-bimodules and skew-corner modules.

``M_{n x m}(A)`` is treated as a right Hilbert module over ``M_m(A)`` with
``<x, y>_R = x* y`` and as a left module over ``M_n(A)`` with
``<x, y>_L = x y*``, everything computed blockwise.  A tuple of module
elements is *unimodular* when the sum of its right inner squares is
invertible in the right algebra, which for matrix modules is exactly left
invertibility of the vertically stacked matrix.

Two independent routes decide whether a tuple generates the module:

* :func:`is_unimodular` tests invertibility of the Gram sum;
* :func:`gen_oracle` assembles the complex-linear map
  ``(a_1, ..., a_k) -> sum_j a_j . x_j`` from copies of the left algebra into
  the module and compares its numerical rank with the module dimension.

Skew corners ``p M_N(A) q`` keep their elements inside the ambient matrix
algebra (always of the compressed form ``p x q``).  Both kinds of space
describe block ``i`` by its compressed shape ``(r_i, s_i)`` and share one
implementation of every operation written over those shapes; a corner
compresses to the ranges of ``p`` and ``q`` where a matrix space has nothing
to do.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    Algebra,
    AlgebraElement,
    _Blocks,
    _hermitized,
    _require_positive_finite,
    _svdvals,
    matrix_from_json,
    matrix_to_json,
)
from .errors import (
    DegenerateModuleError,
    DomainError,
    ModuleNotFullError,
    ShapeMismatchError,
)
from .sampling import complex_gaussian

#: Absolute tolerance for accepting ``p`` as a projection (p = p* = p^2).
PROJECTION_TOL = 1e-10


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class _SpaceOps:
    """Operations shared by matrix and corner spaces.

    A space sets ``right_algebra``, ``left_algebra`` and ``_right_unit`` at
    construction and provides ``block_shapes`` (stored element blocks),
    ``compressed_shapes`` (per block ``(r_i, s_i)``) and two pairs of hooks:

    * ``_core(i, block)`` / ``_embed(i, core)`` between a stored element block
      and its ``r_i x s_i`` core;
    * ``_compress(b)`` / ``_expand(c)`` between a right-algebra element and
      its image in the sum of the ``M_{s_i}(C)`` with ``s_i > 0``.
    """

    @property
    def dim(self) -> int:
        """Complex vector-space dimension of the module."""
        return sum(r * s for r, s in self.compressed_shapes)

    def right_algebra_unit(self) -> AlgebraElement:
        return self._right_unit

    def zero(self) -> "ModuleElement":
        return ModuleElement._wrap(
            self,
            [np.zeros(shape, dtype=np.complex128) for shape in self.block_shapes],
        )

    # -- right algebra helpers: the kernel's operations on the compressed image --

    def right_margin(self, b) -> float:
        """Invertibility margin of ``b``, the kernel's rule on the compressed image."""
        return self._compress(b).margin()

    def right_is_invertible(self, b, tol: float = DEFAULT_TOL) -> bool:
        return self._compress(b).is_invertible(tol)

    def right_inverse(self, b, tol: float = DEFAULT_TOL, check: bool = True):
        c = self._compress(b)
        if check:
            return self._expand(c.inverse(tol))
        return self._expand(
            AlgebraElement._wrap(c.algebra, [np.linalg.inv(cb) for cb in c.blocks])
        )

    def right_inv_sqrt(self, b, tol: float = DEFAULT_TOL):
        return self._expand(self._compress(b).inv_sqrt(tol))

    def right_positive_part(self, b):
        return self._expand(self._compress(b).positive_part())

    # -- fullness and stable rank ------------------------------------------------------

    def predicted_stable_rank(self):
        """``max ceil(s_i / r_i)`` over live blocks; ``None`` if the space is not full.

        Finite-dimensional base algebras have stable rank one, so for matrix
        spaces this is the ceiling formula ``ceil(cols / rows)``.
        """
        if not is_full(self):
            return None
        return max(_ceil_div(s, r) for r, s in self.compressed_shapes if s > 0)

    def rank_obstruction(self, k: int) -> bool:
        """Whether ``k``-tuples are never unimodular for counting reasons."""
        return any(k * r < s for r, s in self.compressed_shapes)

    def standard_unimodular_tuple(self) -> list:
        """Deterministic shortest unimodular tuple: partial identity columns.

        Per block the cores of the returned entries stack to the identity
        padded with zero rows, so the Gram sum is exactly the unit.
        """
        length = self.predicted_stable_rank()
        if length is None:
            raise ModuleNotFullError(
                "corner has a zero row projection against a nonzero column "
                "projection; no unimodular tuple exists"
            )
        entries = []
        for j in range(length):
            blocks = []
            for i, (r, s) in enumerate(self.compressed_shapes):
                stacked = np.eye(length * r, s, dtype=np.complex128)
                blocks.append(self._embed(i, stacked[j * r : (j + 1) * r, :]))
            entries.append(ModuleElement._wrap(self, blocks))
        return entries


@dataclass(frozen=True)
class ModuleSpace(_SpaceOps):
    """The right Hilbert module ``M_{rows x cols}(A)`` over ``M_cols(A)``.

    Per block ``i`` of the base algebra, elements are complex matrices of
    shape ``(rows * k_i, cols * k_i)``.  The right and left algebras are the
    amplifications of the base, built once at construction.
    """

    alg: Algebra
    rows: int
    cols: int
    right_algebra: Algebra = field(init=False, repr=False, compare=False)
    left_algebra: Algebra = field(init=False, repr=False, compare=False)
    _right_unit: AlgebraElement = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", operator.index(self.rows))
        object.__setattr__(self, "cols", operator.index(self.cols))
        if self.rows < 1 or self.cols < 1:
            raise ValueError("module shape needs rows >= 1 and cols >= 1")
        right = self.alg.matrix_algebra(self.cols)
        object.__setattr__(self, "right_algebra", right)
        object.__setattr__(self, "left_algebra", self.alg.matrix_algebra(self.rows))
        object.__setattr__(self, "_right_unit", right.unit())

    @property
    def block_shapes(self) -> tuple:
        return tuple(
            (self.rows * k, self.cols * k) for k in self.alg.block_sizes
        )

    # Blocks and right-algebra elements are already their compressed form.
    compressed_shapes = block_shapes

    def _core(self, i, block):
        return block

    def _compress(self, b):
        return b

    _embed = _core
    _expand = _compress

    # -- elements -------------------------------------------------------------

    def element(self, blocks) -> "ModuleElement":
        """Build an element from one matrix per block (copies the data)."""
        return ModuleElement(self, blocks)

    def random_element(self, rng) -> "ModuleElement":
        return ModuleElement._wrap(
            self, [complex_gaussian(rng, shape) for shape in self.block_shapes]
        )

    # -- module actions ---------------------------------------------------------

    def apply_right(self, x, b) -> "ModuleElement":
        if b.algebra != self.right_algebra:
            raise ShapeMismatchError("right operand is not in the right algebra")
        return ModuleElement._wrap(
            self, [xb @ bb for xb, bb in zip(x.blocks, b.blocks)]
        )

    def apply_left(self, a, x) -> "ModuleElement":
        if a.algebra != self.left_algebra:
            raise ShapeMismatchError("left operand is not in the left algebra")
        return ModuleElement._wrap(
            self, [ab @ xb for ab, xb in zip(a.blocks, x.blocks)]
        )

    # -- stacking ----------------------------------------------------------------

    def stack(self, entries) -> "ModuleElement":
        """Vertical concatenation, an element of the taller matrix module."""
        target = ModuleSpace(self.alg, self.rows * len(entries), self.cols)
        blocks = [
            np.vstack([x.blocks[i] for x in entries])
            for i in range(self.alg.num_blocks)
        ]
        return ModuleElement._wrap(target, blocks)

    # -- serialization -------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "algebra": self.alg.to_json_dict(),
            "rows": self.rows,
            "cols": self.cols,
        }

    @classmethod
    def from_json_dict(cls, data) -> "ModuleSpace":
        return cls(Algebra.from_json_dict(data["algebra"]), data["rows"], data["cols"])


def _same_space(x, y, message="elements belong to different module spaces"):
    """The one same-space rule, for elements and tuples alike."""
    if x.space is not y.space and x.space != y.space:
        raise ShapeMismatchError(message)


class ModuleElement(_Blocks):
    """A module element: one complex block matrix per block of the base algebra.

    Supports ``x + y``, ``x - y``, scalar multiples, the right action
    ``x * b`` by the right algebra and the left action ``a * x`` by the left
    algebra.
    """

    __slots__ = ("space",)
    _parent = "space"

    def __init__(self, space, blocks):
        super().__init__(space, blocks, space.block_shapes)

    def _new(self, blocks):
        return ModuleElement._wrap(self.space, blocks)

    def _require_same(self, other):
        if not isinstance(other, ModuleElement):
            raise TypeError(f"expected a ModuleElement, got {type(other).__name__}")
        _same_space(self, other)

    # -- module actions -------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.space.apply_right(self, other)
        return _Blocks.__mul__(self, other)

    def __rmul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.space.apply_left(other, self)
        return _Blocks.__rmul__(self, other)

    def to_json_dict(self) -> dict:
        return {
            "space": self.space.to_json_dict(),
            "blocks": [matrix_to_json(b) for b in self.blocks],
        }

    def __repr__(self):
        return f"<ModuleElement in {self.space!r}, norm={self.norm():.4g}>"


@dataclass(frozen=True)
class ModuleTuple:
    """An ordered tuple of module elements sharing one space."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("a module tuple needs at least one entry")
        for x in entries[1:]:
            _same_space(entries[0], x, "tuple entries live in different spaces")
        object.__setattr__(self, "entries", entries)

    @property
    def space(self):
        return self.entries[0].space

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, idx):
        return self.entries[idx]

    def __sub__(self, other):
        if len(other) != len(self):
            raise ShapeMismatchError("tuples have different lengths")
        return ModuleTuple(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def norm(self) -> float:
        """Norm of the tuple viewed as a single stacked element."""
        return float(np.sqrt(gram(self).norm()))

    def to_json_list(self) -> list:
        return [x.to_json_dict() for x in self.entries]


# ---------------------------------------------------------------------------
# Free operation surface
# ---------------------------------------------------------------------------


def inner_right(x, y) -> AlgebraElement:
    """Right inner product ``x* y``, conjugate-linear in ``x``."""
    _same_space(x, y)
    return AlgebraElement._wrap(
        x.space.right_algebra,
        [xb.conj().T @ yb for xb, yb in zip(x.blocks, y.blocks)],
    )


def inner_left(x, y) -> AlgebraElement:
    """Left inner product ``x y*``, conjugate-linear in ``y``."""
    _same_space(x, y)
    return AlgebraElement._wrap(
        x.space.left_algebra,
        [xb @ yb.conj().T for xb, yb in zip(x.blocks, y.blocks)],
    )


def pairing(y: ModuleTuple, x: ModuleTuple) -> AlgebraElement:
    """The pairing ``sum_k <y_k, x_k>`` of two tuples of one length and space.

    ``x`` is unimodular exactly when some ``y`` makes the pairing 1.
    """
    if len(y.entries) != len(x.entries):
        raise ShapeMismatchError("tuples of different lengths cannot be paired")
    space = x.space
    _same_space(y, x)
    acc = [np.zeros((s, s), dtype=np.complex128) for _, s in space.block_shapes]
    for yk, xk in zip(y.entries, x.entries):
        yblocks = yk.blocks
        for i, xb in enumerate(xk.blocks):
            acc[i] += yblocks[i].conj().T @ xb
    return AlgebraElement._wrap(space.right_algebra, acc)


def gram(t: ModuleTuple) -> AlgebraElement:
    """Sum of the right inner squares of the tuple entries."""
    return pairing(t, t)


def stack(t: ModuleTuple) -> ModuleElement:
    """Identify a k-tuple with one element of the k-fold stacked module."""
    return t.space.stack(t.entries)


def is_unimodular(t: ModuleTuple, tol: float = DEFAULT_TOL) -> bool:
    """Whether the Gram sum of the tuple is invertible in the right algebra."""
    return t.space.right_is_invertible(gram(t), tol)


def unimodularity_margin(t: ModuleTuple) -> float:
    """Relative smallest singular value of the Gram sum (invertible iff > tol)."""
    return t.space.right_margin(gram(t))


def dual_witness(t: ModuleTuple, tol: float = DEFAULT_TOL) -> ModuleTuple:
    """A tuple ``y`` with ``sum_j <y_j, x_j> = 1`` for a unimodular ``t``.

    Uses the closed form ``y_j = x_j (b^{-1})*`` with ``b`` the Gram sum.
    """
    b = gram(t)
    if not t.space.right_is_invertible(b, tol):
        raise DomainError(
            f"tuple is not unimodular at tol={tol:g} "
            f"(margin {t.space.right_margin(b):.3g})"
        )
    # Invertibility was just established, so skip the redundant gate.
    c = t.space.right_inverse(b, tol, check=False).adjoint()
    return ModuleTuple(tuple(x * c for x in t.entries))


def normalize_tuple(t: ModuleTuple, tol: float = DEFAULT_TOL) -> ModuleTuple:
    """Right-multiply by the inverse square root of the Gram sum."""
    c = t.space.right_inv_sqrt(gram(t), tol)
    return ModuleTuple(tuple(x * c for x in t.entries))


def gen_oracle(t: ModuleTuple, tol: float = DEFAULT_TOL) -> bool:
    """Brute-force generator test, independent of inner products.

    Assembles the complex-linear map sending left-algebra coefficient tuples
    to module elements and checks that its numerical rank equals the module
    dimension.
    """
    _require_positive_finite("tol", tol)
    return generation_margin(t) > tol


def generation_margin(t: ModuleTuple) -> float:
    """Relative size of the critical singular value of the span map.

    For each block the linear map ``(a_1, ..., a_k) -> sum_j a_j x_j`` is
    assembled column by column over a basis of the left algebra; the
    entries generate the module exactly when the map has full rank, i.e.
    when the ``dim``-th singular value is positive relative to the
    largest.  Returns the minimum of that ratio over blocks.
    """
    space = t.space
    margin = np.inf
    for i, (r, s) in enumerate(space.compressed_shapes):
        dim = r * s
        if dim == 0:
            continue
        eye = np.eye(r)
        columns = np.hstack(
            [np.kron(eye, space._core(i, x.blocks[i]).T) for x in t.entries]
        )
        svals = _svdvals(columns)
        largest = float(svals[0]) if svals.size else 0.0
        if largest == 0.0:
            return 0.0
        critical = float(svals[dim - 1]) if svals.size >= dim else 0.0
        margin = min(margin, critical / largest)
    return margin


def is_full(space) -> bool:
    """Whether the inner products span the right algebra.

    The products ``x* y`` of ``r x s`` matrices span ``M_s`` as soon as
    ``r > 0``, so the module is full exactly when every block with
    ``s_i > 0`` has ``r_i > 0``.
    """
    return all(r > 0 for r, s in space.compressed_shapes if s > 0)


# ---------------------------------------------------------------------------
# Skew corners
# ---------------------------------------------------------------------------


def _range_basis(block) -> np.ndarray:
    """Orthonormal basis of the range of a projection block (eigenvalue > 1/2)."""
    w, v = np.linalg.eigh(_hermitized(block))
    return np.ascontiguousarray(v[:, w > 0.5])


class CornerSpace(_SpaceOps):
    """The skew corner ``p M_N(A) q`` over the corner algebra ``q M_N(A) q``.

    Elements are stored as ambient matrices of the compressed form
    ``p x q``, and inner products land in the ambient algebra (inside the
    corner subalgebras).  With ``U_i``, ``V_i`` orthonormal bases of the
    ranges of ``p`` and ``q``, an element block ``x`` has the core
    ``U_i* x V_i`` and a right-algebra block ``b`` the image ``V_i* b V_i``;
    the shared operations work on those.
    """

    def __init__(self, alg: Algebra, size: int, p: AlgebraElement, q: AlgebraElement):
        size = operator.index(size)
        if size < 1:
            raise ValueError("ambient matrix size must be >= 1")
        ambient = alg.matrix_algebra(size)
        for name, proj in (("p", p), ("q", q)):
            if proj.algebra != ambient:
                raise ShapeMismatchError(
                    f"{name} must live in the ambient algebra M_{size}(A)"
                )
            if (proj - proj.adjoint()).norm() > PROJECTION_TOL or (
                proj * proj - proj
            ).norm() > PROJECTION_TOL:
                raise DomainError(f"{name} is not a projection (p = p* = p^2)")
        if q.norm() <= 0.5:
            raise DegenerateModuleError(
                "q = 0 yields the zero corner algebra; the module is degenerate"
            )
        self.alg = alg
        self.size = size
        self.ambient = self.right_algebra = self.left_algebra = ambient
        self.p = p
        self.q = q
        self._right_unit = q
        self._row_bases = tuple(_range_basis(b) for b in p.blocks)
        self._col_bases = tuple(_range_basis(b) for b in q.blocks)
        self.compressed_shapes = tuple(
            (u.shape[1], v.shape[1]) for u, v in zip(self._row_bases, self._col_bases)
        )
        # Blocks where q vanishes drop out of the compressed right algebra.
        self._live = tuple(i for i, (_, s) in enumerate(self.compressed_shapes) if s)
        self._core_algebra = Algebra(
            tuple(self.compressed_shapes[i][1] for i in self._live)
        )

    # -- structure -----------------------------------------------------------

    @property
    def block_shapes(self) -> tuple:
        return tuple((k, k) for k in self.ambient.block_sizes)

    def _core(self, i, block):
        return self._row_bases[i].conj().T @ block @ self._col_bases[i]

    def _embed(self, i, core):
        return self._row_bases[i] @ core @ self._col_bases[i].conj().T

    def _compress(self, b):
        return AlgebraElement._wrap(
            self._core_algebra,
            [self._col_bases[i].conj().T @ b.blocks[i] @ self._col_bases[i] for i in self._live],
        )

    def _expand(self, c):
        blocks = [np.zeros((k, k), dtype=np.complex128) for k in self.ambient.block_sizes]
        for i, cb in zip(self._live, c.blocks):
            blocks[i] = self._col_bases[i] @ cb @ self._col_bases[i].conj().T
        return AlgebraElement._wrap(self.ambient, blocks)

    def __eq__(self, other):
        if not isinstance(other, CornerSpace):
            return NotImplemented
        return (
            self.alg == other.alg
            and self.size == other.size
            and all(np.array_equal(a, b) for a, b in zip(self.p.blocks, other.p.blocks))
            and all(np.array_equal(a, b) for a, b in zip(self.q.blocks, other.q.blocks))
        )

    __hash__ = None

    # -- elements ----------------------------------------------------------------

    def element(self, ambient_blocks) -> ModuleElement:
        """Compress an ambient matrix per block into the corner (``p x q``)."""
        blocks = [
            pb @ np.asarray(xb, dtype=np.complex128) @ qb
            for pb, xb, qb in zip(self.p.blocks, ambient_blocks, self.q.blocks)
        ]
        return ModuleElement(self, blocks)

    def random_element(self, rng) -> ModuleElement:
        blocks = [
            pb @ complex_gaussian(rng, (k, k)) @ qb
            for pb, qb, k in zip(self.p.blocks, self.q.blocks, self.ambient.block_sizes)
        ]
        return ModuleElement._wrap(self, blocks)

    # -- actions (operands are compressed into the corner first) ----------------------

    def apply_right(self, x, b) -> ModuleElement:
        if b.algebra != self.ambient:
            raise ShapeMismatchError("right operand must live in the ambient algebra")
        return ModuleElement._wrap(
            self,
            [
                xb @ (qb @ bb @ qb)
                for xb, bb, qb in zip(x.blocks, b.blocks, self.q.blocks)
            ],
        )

    def apply_left(self, a, x) -> ModuleElement:
        if a.algebra != self.ambient:
            raise ShapeMismatchError("left operand must live in the ambient algebra")
        return ModuleElement._wrap(
            self,
            [
                (pb @ ab @ pb) @ xb
                for ab, xb, pb in zip(a.blocks, x.blocks, self.p.blocks)
            ],
        )

    # -- stacking: block-diagonal embedding into a larger ambient algebra ---------------

    def stack(self, entries) -> ModuleElement:
        k = len(entries)
        n = self.size
        big_p_blocks = [np.kron(np.eye(k), pb) for pb in self.p.blocks]
        big_q_blocks = []
        stacked_blocks = []
        for i, size_i in enumerate(self.ambient.block_sizes):
            big = np.zeros((k * size_i, k * size_i), dtype=np.complex128)
            big[:size_i, :size_i] = self.q.blocks[i]
            big_q_blocks.append(big)
            mat = np.zeros((k * size_i, k * size_i), dtype=np.complex128)
            for j, x in enumerate(entries):
                mat[j * size_i : (j + 1) * size_i, :size_i] = x.blocks[i]
            stacked_blocks.append(mat)
        big_ambient = self.alg.matrix_algebra(k * n)
        target = CornerSpace(
            self.alg,
            k * n,
            AlgebraElement._wrap(big_ambient, big_p_blocks),
            AlgebraElement._wrap(big_ambient, big_q_blocks),
        )
        return ModuleElement._wrap(target, stacked_blocks)

    # -- serialization --------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "algebra": self.alg.to_json_dict(),
            "size": self.size,
            "p": self.p.to_json_dict(),
            "q": self.q.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data) -> "CornerSpace":
        alg = Algebra.from_json_dict(data["algebra"])
        ambient = alg.matrix_algebra(data["size"])
        p = AlgebraElement.from_json_dict(ambient, data["p"])
        q = AlgebraElement.from_json_dict(ambient, data["q"])
        return cls(alg, data["size"], p, q)

    def __repr__(self):
        shapes = ", ".join(f"{r}x{s}" for r, s in self.compressed_shapes)
        return f"<CornerSpace of M_{self.size}(A), compressed blocks [{shapes}]>"


def corner_space(
    alg: Algebra, size: int, p: AlgebraElement, q: AlgebraElement
) -> CornerSpace:
    """The corner module ``p M_N(A) q`` over ``q M_N(A) q``.

    ``p`` and ``q`` must be projections in the ambient matrix algebra; a zero
    ``q`` is rejected because the corner algebra would collapse.
    """
    return CornerSpace(alg, size, p, q)


# ---------------------------------------------------------------------------
# JSON loading helpers
# ---------------------------------------------------------------------------


def space_from_json_dict(data):
    if "rows" in data:
        return ModuleSpace.from_json_dict(data)
    return CornerSpace.from_json_dict(data)


def element_from_json_dict(data) -> ModuleElement:
    return tuple_from_json_list([data])[0]


def tuple_from_json_list(data) -> ModuleTuple:
    """The one JSON-to-element path: every entry must declare the first's space."""
    if not data:
        raise ValueError("a module tuple needs at least one entry")
    space = space_from_json_dict(data[0]["space"])
    entries = []
    for item in data:
        if item["space"] != data[0]["space"]:
            raise ShapeMismatchError("tuple entries declare different spaces")
        blocks = [matrix_from_json(m) for m in item["blocks"]]
        entries.append(ModuleElement(space, blocks))
    return ModuleTuple(tuple(entries))
