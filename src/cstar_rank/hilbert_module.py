"""Matrix Hilbert C*-bimodules and skew-corner modules.

``M_{n x m}(A)`` is treated as a right Hilbert module over ``M_m(A)`` with
``<x, y>_R = x* y`` and as a left module over ``M_n(A)`` with
``<x, y>_L = x y*``, everything computed blockwise.  A tuple of module
elements is *unimodular* when the sum of its right inner squares is
invertible in the right algebra, which for matrix modules is exactly left
invertibility of the vertically stacked matrix.

Two independent routes decide whether a tuple generates the module:

* :func:`is_unimodular` tests invertibility of the Gram sum, from its eigenvalues;
* :func:`gen_oracle` reads the critical singular value of the span map
  ``(a_1, ..., a_k) -> sum_j a_j . x_j`` from the stacked entry cores.

They agree on full spaces at unit scale: scaled by ``1e-4``, a unimodular pair of
``M_{1x2}(C)`` fails the first and passes the second (ROADMAP item 3).  On a
non-full corner they may differ by design.

Skew corners ``p M_N(A) q`` keep their elements inside the ambient matrix
algebra.  Both kinds of space describe block ``i`` by its compressed shape
``(r_i, s_i)`` and share one implementation of every operation written over
those shapes; a corner compresses to the ranges of ``p`` and ``q`` where a
matrix space has nothing to do.  Element construction, the module actions
and :func:`stack` are shared too: each takes its blocks through the space's
``_project`` hook, the one place that knows a corner element is ``p x q``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    _NOT_FINITE,
    Algebra,
    AlgebraElement,
    _Blocks,
    _Json,
    _extreme_svals,
    _gate_norm,
    _hermitian_calculus,
    _hermitized,
    _lapack,
    _margin,
    _require_same_parent,
    matrix_to_json,
)
from .errors import (
    DegenerateModuleError,
    DomainError,
    ModuleNotFullError,
    ShapeMismatchError,
)
from .sampling import gaussian_blocks, random_blocks
from .scalars import DEFAULT_TOL, _require_positive_finite, _shape_int

#: Absolute tolerance for accepting ``p`` as a projection (p = p* = p^2).
PROJECTION_TOL = 1e-10


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _entry_products(y, x, shape):
    """The products ``a* b`` of the entries of two stacked forms ``(k r, s)``, in order, from one batched
    matmul; of two stacks ``(trials, k r, s)``, one entry of all trials at a time, so that a stack holds
    one ``(trials, s, s)`` product, not ``k``.  ``sum`` adds them."""
    if y.ndim == 2:
        return y.reshape(-1, *shape).conj().swapaxes(-1, -2) @ x.reshape(-1, *shape)
    entries = (f.reshape(len(f), -1, *shape).swapaxes(0, 1) for f in (y, x))
    return (a.conj().swapaxes(-1, -2) @ b for a, b in zip(*entries))


class _SpaceOps:
    """Operations shared by matrix and corner spaces.

    A space sets ``right_algebra`` and ``left_algebra`` at construction and
    provides ``block_shapes`` (stored element blocks),
    ``compressed_shapes`` (per block ``(r_i, s_i)``) and these hooks:

    * ``_core(i, block)`` / ``_embed(i, core)`` between a stored element block
      and its ``r_i x s_i`` core;
    * ``_compress`` / ``_expand`` between the blocks of a right-algebra element and of
      its image in ``_core_algebra``, the sum of the ``M_{s_i}(C)`` with ``s_i > 0``;
      other modules reach them through ``right_*``, ``_right_calculus`` and ``_gram_spectrum`` only;
    * ``_project(i, g)`` from any matrix of the stored block shape to an
      element block, the one place that knows how an element is stored;
    * ``_stacked_space(k)``, the space that :func:`stack` embeds a
      ``k``-tuple into;
    * ``_rounding_bound(k)``, which no computed margin of a ``k``-tuple below the counting bound exceeds.

    ``_core``, ``_embed``, ``_project`` and ``_compress`` also take stacks ``(..., m, n)``.
    """

    @property
    def dim(self) -> int:
        """Complex vector-space dimension of the module."""
        return sum(r * s for r, s in self.compressed_shapes)

    def right_algebra_unit(self) -> AlgebraElement:
        """The unit of the right algebra, built when asked for."""
        return self.right_algebra.unit()

    def _less_unit(self, blocks) -> list:
        """Right-algebra ``blocks`` less the unit, in place, building none (a corner's unit is ``q``)."""
        for b in blocks:
            b.flat[:: len(b) + 1] -= 1
        return blocks

    def zero(self) -> "ModuleElement":
        return ModuleElement._wrap(
            self,
            [np.zeros(shape, dtype=np.complex128) for shape in self.block_shapes],
        )

    def _projected(self, blocks) -> "ModuleElement":
        """Wrap ``blocks`` of the stored shapes, each taken through ``_project``."""
        return ModuleElement._wrap(self, [self._project(i, g) for i, g in enumerate(blocks)])

    def element(self, blocks) -> "ModuleElement":
        """Build an element from one matrix per stored block (copies the data),
        projected into the space (``p x q`` on a corner)."""
        return ModuleElement(self, blocks)

    def random_element(self, rng) -> "ModuleElement":
        """I.i.d. standard complex Gaussian entries in the stored block shapes,
        projected into the space (``p g q`` on a corner)."""
        return self._projected(random_blocks(rng, self.block_shapes))

    def random_gram_margins(self, draws, k: int) -> np.ndarray:
        """:func:`unimodularity_margin` of one random ``k``-tuple per row of ``draws``.

        Row ``t`` holds the standard normals that ``k`` calls of :meth:`random_element` take from one
        generator.  This is :func:`unimodularity_margin` on the tuples' stacked forms with a leading trial
        axis, :meth:`_trial_stacks`: the tuples' own pairing, then one stacked ``eigvalsh`` per block, so
        each margin is bit for bit its tuple's.
        """
        y, x = itertools.tee(self._trial_stacks(draws, k))
        return self._gram_spectrum(self._stacked_pairing(y, x))[0]

    def _trial_stacks(self, draws, k: int):
        """Per block, one at a time, the ``(trials, k r_i, s_i)`` stack of the tuples' stacked forms."""
        for i, drawn in enumerate(gaussian_blocks(draws.reshape(len(draws), k, -1), self.block_shapes)):
            yield self._project(i, drawn).reshape(len(draws), -1, drawn.shape[-1])

    def _unimodular_count(self, draws, k: int, tol: float) -> int:
        """``count_nonzero(random_gram_margins(draws, k) > tol)``: as ``lambda_max <= tr G``, all trials
        pass if ``G - (tol (1 + T) + (64 s + 4 (n + 2)) u T) 1`` factors in each compressed block, ``T`` a
        trial's largest trace and ``G`` one product ``X* X`` per block of :meth:`_trial_stacks`, which only
        decides; if a trial fails, or below the counting bound, the margins, the tuples' own pairing, decide.
        A cell below the counting bound reaches here only at a ``tol`` under :meth:`_rounding_bound`."""
        if not self.rank_obstruction(k):
            blocks = self._compress([x.conj().swapaxes(-1, -2) @ x for x in self._trial_stacks(draws, k)])
            traces = np.max([b.diagonal(0, -2, -1).real.sum(-1) for b in blocks], axis=0)
            # u = 2**-53: a factored G - c 1 has lambda_min(G) > c - 8 s u T (Higham, Accuracy and Stability,
            # Thm 10.3: |dA| <= gamma_{s+1} |R*||R|, of norm <= 4 (s+1) u tr(R*R) for complex data); eigvalsh
            # errs by p(s) u ||G|| at each end (LAPACK Users' Guide 4.7); 64 s u T covers both for p(s) <= 25 s.
            # The margins' per-entry sums (k products of r terms, then k - 1 additions) and this product of
            # n = k r terms each lie within gamma_{n+2} |X|*|X| of X* X (Higham, Sec. 3.5, complex case), of norm
            # <= gamma_{n+2} ||X||_F^2 = gamma_{n+2} T: 4 (n + 2) u T covers the gap between them.
            s, n = max(b.shape[-1] for b in blocks), k * max(r for r, _ in self.block_shapes)
            shift = (tol + (tol + (64 * s + 4 * (n + 2)) * 2.0 ** -53) * traces)[:, None]
            for b in blocks:
                diagonal = np.arange(b.shape[-1])
                b[:, diagonal, diagonal] -= shift
            try:
                _lapack("cholesky", blocks)
                return len(draws)
            except DomainError:  # not positive definite, or a shift that overflowed
                pass
        return int(np.count_nonzero(self.random_gram_margins(draws, k) > tol))

    def _gram_spectrum(self, g):
        """The margin rule on the compressed image of a Gram sum's blocks ``g``, with each compressed
        block's smallest eigenvalue modulus and eigenvalue, and the compressed blocks.  ``g`` is
        Hermitian, so its singular values are its eigenvalue moduli, from one ``eigvalsh`` per block:
        floats for one sum, arrays over the trials for stacks ``(t, s, s)``.  ``DomainError`` unless
        all extremes are finite, as in :func:`_extreme_svals`."""
        compressed = self._compress(g)
        values = _lapack("eigvalsh", compressed)
        # A rank-deficient Gram sum can give a tiny negative eigenvalue, so neither end
        # of the ascending eigenvalues need be the smallest modulus.
        if compressed[0].ndim > 2:
            moduli = [np.abs(w) for w in values]
            tops, bottoms = [m.max(-1) for m in moduli], [m.min(-1) for m in moduli]
            lows, finite = [w[:, 0] for w in values], np.isfinite(tops + bottoms).all()
        else:
            values = [w.tolist() for w in values]
            moduli = [[abs(v) for v in w] for w in values]
            tops, bottoms = [max(m) for m in moduli], [min(m) for m in moduli]
            lows, finite = [w[0] for w in values], all(map(math.isfinite, tops + bottoms))
        if not finite:
            raise DomainError(_NOT_FINITE)
        return _margin(tops, bottoms), bottoms, lows, compressed

    def _stacked_pairing(self, y, x) -> list:
        """The blocks of :func:`pairing` on stacked forms, or on stacks of them with a leading trial axis,
        summed over each form's entries in order from 0 (``-0.0 + 0`` is ``0.0``): bit for bit the same sums."""
        return [sum(_entry_products(yb, xb, shape)) for yb, xb, shape in zip(y, x, self.block_shapes)]

    # -- right algebra helpers: the kernel's operations on the compressed image --

    def right_margin(self, b) -> float:
        """Invertibility margin of ``b``, the kernel's rule on the compressed image."""
        return float(_margin(*_extreme_svals(self._compress(b.blocks))))

    def right_inverse(self, b, tol: float = DEFAULT_TOL):
        """Inverse of ``b``, the kernel's inverse on its compressed image, margin test included."""
        c = AlgebraElement._wrap(self._core_algebra, self._compress(b.blocks))
        return AlgebraElement._wrap(self.right_algebra, self._expand(c.inverse(tol).blocks))

    def right_inv_sqrt(self, b, tol: float = DEFAULT_TOL):
        c = AlgebraElement._wrap(self._core_algebra, self._compress(b.blocks))
        return AlgebraElement._wrap(self.right_algebra, self._expand(c.inv_sqrt(tol).blocks))

    def _right_calculus(self, g):
        """``f ->`` the right-algebra blocks of ``f(b)``, ``b`` hermitized from its blocks ``g``, by one
        :func:`_hermitian_calculus` of their compressed image."""
        calculus = _hermitian_calculus(self._compress(g))
        return lambda f: self._expand(calculus(f))

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

    def _full_stable_rank(self) -> int:
        """:meth:`predicted_stable_rank`; a space that is not full raises :class:`ModuleNotFullError`."""
        sr = self.predicted_stable_rank()
        if sr is None:
            raise ModuleNotFullError("corner has a zero row projection against a nonzero column "
                                     "projection; no unimodular tuple exists")
        return sr

    def standard_unimodular_tuple(self) -> "ModuleTuple":
        """Deterministic shortest unimodular tuple: partial identity columns.

        Per block the cores of the returned entries stack to the identity
        padded with zero rows, so the Gram sum is the unit.
        """
        return self._tuple_from_stacked(self._standard_padding(self.right_algebra_unit().blocks))

    def _standard_padding(self, b) -> list:
        """The stacked form of ``u b``, ``u`` the standard tuple of a full space and ``b`` the blocks of
        a right-algebra element, built without ``u``: per block its cores stack to the compressed ``b``
        over zero rows."""
        k, blocks = self._full_stable_rank(), iter(self._compress(b))
        return self._stacked_from_cores(k, [np.eye(k * r, s, dtype=np.complex128) @ next(blocks) if s
                                            else np.eye(k * r, 0) for r, s in self.compressed_shapes])

    def _stacked_cores(self, k, stacked) -> list:
        """Per block the ``(k r_i) x s_i`` stack of the cores of a ``k``-tuple's stacked form."""
        return [self._core(i, b.reshape(k, *self.block_shapes[i])).reshape(k * r, s)
                for i, (b, (r, s)) in enumerate(zip(stacked, self.compressed_shapes))]

    def _stacked_from_cores(self, k, cores) -> list:
        """The stacked form of the ``k``-tuple whose ``(k r_i) x s_i`` stacked cores are ``cores``."""
        return [self._embed(i, c.reshape(k, r, s)).reshape(-1, self.block_shapes[i][1])
                for i, (c, (r, s)) in enumerate(zip(cores, self.compressed_shapes))]

    def _tuple_from_stacked(self, stacked) -> "ModuleTuple":
        """The tuple whose stacked form is ``stacked``: its entries' blocks are its row slices."""
        slabs = [b.reshape(-1, *shape) for b, shape in zip(stacked, self.block_shapes)]
        return ModuleTuple([ModuleElement._wrap(self, blocks) for blocks in zip(*slabs)])


@dataclass(frozen=True)
class ModuleSpace(_SpaceOps):
    """The right Hilbert module ``M_{rows x cols}(A)`` over ``M_cols(A)``.

    Per block ``i`` of the base algebra, elements are complex matrices of
    shape ``(rows * k_i, cols * k_i)``.  The right and left algebras are the
    amplifications of the base, built once at construction; they hold block
    sizes only, so a declared shape allocates nothing.
    """

    alg: Algebra
    rows: int
    cols: int
    right_algebra: Algebra = field(init=False, repr=False, compare=False)
    left_algebra: Algebra = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", _shape_int(self.rows))
        object.__setattr__(self, "cols", _shape_int(self.cols))
        if self.rows < 1 or self.cols < 1:
            raise ValueError("module shape needs rows >= 1 and cols >= 1")
        object.__setattr__(self, "right_algebra", self.alg.matrix_algebra(self.cols))
        object.__setattr__(self, "_core_algebra", self.right_algebra)
        object.__setattr__(self, "left_algebra", self.alg.matrix_algebra(self.rows))
        shapes = tuple((self.rows * k, self.cols * k) for k in self.alg.block_sizes)
        # Blocks and right-algebra elements are already their compressed form.
        for name in ("block_shapes", "compressed_shapes"):
            object.__setattr__(self, name, shapes)

    def _core(self, i, block):
        return block

    def _compress(self, blocks):
        return blocks

    _embed = _project = _core
    _expand = _compress

    def _stacked_space(self, k):
        return ModuleSpace(self.alg, self.rows * k, self.cols)

    def _rounding_bound(self, k):
        # A block with k r < s has lambda_min(G) = 0.  With T = tr G and u = 2**-53, summing k entries
        # of r rows errs by about c k r u T, and eigvalsh by p(s) u ||G|| at each end (p(s) <= 25 s, as in
        # _unimodular_count).  So the computed |lambda|_min is at most (c k r + p(s)) u T, the computed
        # lambda_max at least T/s less that, and the margin at most about (c k r + p(s)) s u, below B(k).
        return max((64 * s * (k * r + s) * 2.0 ** -53 for r, s in self.compressed_shapes if k * r < s),
                   default=np.inf)

    # -- serialization -------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "algebra": self.alg.to_json_dict(),
            "rows": self.rows,
            "cols": self.cols,
        }

    @classmethod
    def from_json_dict(cls, data) -> "ModuleSpace":
        node = _Json.of(data)
        return node.build(cls, Algebra.from_json_dict(node["algebra"]), node["rows"].shape(), node["cols"].shape())


def _require_acting(a, algebra, side):
    if a.algebra != algebra:
        raise ShapeMismatchError(f"{side} operand is not in the {side} algebra of the space")


class ModuleElement(_Blocks):
    """A module element: one complex block matrix per block of the base algebra.

    Supports ``x + y``, ``x - y``, scalar multiples, the right action
    ``x * b`` by the right algebra and the left action ``a * x`` by the left
    algebra.  The constructor copies and shape-checks ``blocks``, then projects
    them into the space (``p x q`` on a corner), as ``space.element`` does.
    """

    __slots__ = ("space",)
    _parent = "space"
    _kind, _foreign = "a ModuleElement", "elements belong to different module spaces"

    def __init__(self, space, blocks):
        super().__init__(space, blocks, space.block_shapes)
        self.blocks = space._projected(self.blocks).blocks

    # -- module actions: blockwise products, projected back into the space ------

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            _require_acting(other, self.space.right_algebra, "right")
            return self.space._projected(xb @ bb for xb, bb in zip(self.blocks, other.blocks))
        return _Blocks.__mul__(self, other)

    def __rmul__(self, other):
        if isinstance(other, AlgebraElement):
            _require_acting(other, self.space.left_algebra, "left")
            return self.space._projected(ab @ xb for ab, xb in zip(other.blocks, self.blocks))
        return _Blocks.__rmul__(self, other)

    def to_json_dict(self) -> dict:
        return {
            "space": self.space.to_json_dict(),
            "blocks": [matrix_to_json(b) for b in self.blocks],
        }

    def __repr__(self):
        return f"<ModuleElement in {self.space!r}, norm={self._norm_text()}>"


def _same_space(x, y, message=ModuleElement._foreign):
    """The one same-space rule, for elements and tuples alike."""
    _require_same_parent(x.space, y.space, message)


@dataclass(frozen=True)
class ModuleTuple:
    """An ordered tuple of module elements sharing one space: one element of ``M^n``."""

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

    def _stacked(self) -> list:
        """Per block, the entries' blocks stacked down one matrix: the tuple in ``M^n``."""
        return [np.concatenate(column) for column in zip(*(x.blocks for x in self.entries))]

    def norm(self) -> float:
        """Norm of the tuple as one element of ``M^n``, from its stacked form."""
        return max(_extreme_svals(self._stacked())[0])

    def to_json_list(self) -> list:
        return [x.to_json_dict() for x in self.entries]


# ---------------------------------------------------------------------------
# Free operation surface
# ---------------------------------------------------------------------------


def inner_right(x, y) -> AlgebraElement:
    """Right inner product ``x* y``, conjugate-linear in ``x``: the pairing of 1-tuples."""
    return pairing(ModuleTuple((x,)), ModuleTuple((y,)))


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
    if y is not x:  # a tuple paired with itself needs neither check
        if len(y.entries) != len(x.entries):
            raise ShapeMismatchError("tuples of different lengths cannot be paired")
        _same_space(y, x)
    xs = x._stacked()
    ys = xs if y is x else y._stacked()
    return AlgebraElement._wrap(x.space.right_algebra, x.space._stacked_pairing(ys, xs))


def gram(t: ModuleTuple) -> AlgebraElement:
    """Sum of the right inner squares of the tuple entries."""
    return pairing(t, t)


def stack(t: ModuleTuple) -> ModuleElement:
    """Identify a k-tuple with one element of the k-fold stacked module."""
    target = t.space._stacked_space(len(t))
    # The stacked form fills the first columns; the rest of each block stays zero.
    return ModuleElement._wrap(target, [
        np.pad(x, [(0, 0), (0, n - x.shape[1])])
        for x, (_, n) in zip(t._stacked(), target.block_shapes)
    ])


def is_unimodular(t: ModuleTuple, tol: float = DEFAULT_TOL) -> bool:
    """Whether the Gram sum of the tuple is invertible in the right algebra.

    The counting bound decides first: a tuple that it rules out is not
    unimodular at any ``tol``, even where rounding noise passes a tiny one.
    """
    return bool(_is_unimodular_at(t.space, t._stacked(), tol))


def _is_unimodular_at(space, stacked, tol: float, margin=None) -> float:
    """:func:`is_unimodular`'s rule on a tuple's stacked form, whose Gram sum is the tuple's bit for bit,
    and on its ``margin`` if already taken: the margin it accepted, or 0.0 where it is not unimodular."""
    _require_positive_finite("tol", tol)
    if space.rank_obstruction(len(stacked[0]) // space.block_shapes[0][0]):
        return 0.0
    if margin is None:
        margin = space._gram_spectrum(space._stacked_pairing(stacked, stacked))[0]
    return float(margin) if margin > tol else 0.0


def unimodularity_margin(t: ModuleTuple) -> float:
    """Smallest eigenvalue modulus of the Gram sum over ``max(1, largest)``, the
    margin rule on its singular values (invertible iff > tol)."""
    x = t._stacked()
    return float(t.space._gram_spectrum(t.space._stacked_pairing(x, x))[0])


def dual_witness(t: ModuleTuple, tol: float = DEFAULT_TOL) -> ModuleTuple:
    """A tuple ``y`` with ``sum_j <y_j, x_j> = 1`` for a unimodular ``t``.

    Uses the closed form ``y_j = x_j (b^{-1})*`` with ``b`` the Gram sum.
    A tuple that the counting bound rules out raises :class:`DomainError`
    at any ``tol``, before the Gram sum is formed.
    """
    return t.space._tuple_from_stacked(_stacked_dual(t.space, t._stacked(), tol)[0])


def _stacked_dual(space, stacked, tol: float):
    """:func:`dual_witness` on a stacked form: the stacked dual ``x (b^{-1})*``, ``b`` the Gram sum,
    inverted once its margin passes, its norm ``lambda_min(b)^{-1/2}`` and that margin."""
    _require_positive_finite("tol", tol)
    k = len(stacked[0]) // space.block_shapes[0][0]
    if space.rank_obstruction(k):
        raise DomainError(
            f"tuple is not unimodular at any tol: the counting bound "
            f"n*r_i >= s_i fails in some block for n={k}"
        )
    margin, bottoms, _, compressed = space._gram_spectrum(space._stacked_pairing(stacked, stacked))
    if not margin > tol:
        raise DomainError(
            f"tuple is not unimodular at tol={tol:g} (margin {margin:.3g})"
        )
    inverse = space._expand(_lapack("inv", compressed))
    return [x @ cb.conj().T for x, cb in zip(stacked, inverse)], min(bottoms) ** -0.5, float(margin)


def normalize_tuple(t: ModuleTuple, tol: float = DEFAULT_TOL) -> ModuleTuple:
    """Right-multiply by the inverse square root of the Gram sum."""
    c = t.space.right_inv_sqrt(gram(t), tol)
    return ModuleTuple(tuple(x * c for x in t.entries))


def gen_oracle(t: ModuleTuple, tol: float = DEFAULT_TOL) -> bool:
    """Whether :func:`generation_margin` exceeds ``tol``; no inner product is formed.

    Agrees with :func:`is_unimodular` on full spaces at unit scale, away from ``tol``;
    a small tuple can pass here and fail there (ROADMAP item 3).
    """
    _require_positive_finite("tol", tol)
    return generation_margin(t) > tol


def generation_margin(t: ModuleTuple) -> float:
    """Relative size of the critical singular value of the span map.

    Per block of shape ``(r, s)`` the span map sends ``A = [a_1 ... a_k]``
    to ``A X``, with ``X`` the ``k r x s`` stack of the entries' cores, so
    its singular values are those of ``X``, each repeated ``r`` times.  The
    block margin is ``sigma_s(X) / sigma_1(X)`` (0 when ``k r < s`` or
    ``X = 0``); returns the minimum over blocks with ``r s > 0``.
    """
    space, k = t.space, len(t)
    live = [(i, r, s) for i, (r, s) in enumerate(space.compressed_shapes) if r * s]
    cores = space._stacked_cores(k, t._stacked())
    tops, bottoms = _extreme_svals([cores[i] for i, _, _ in live])
    margin = np.inf
    for (_, r, s), top, bottom in zip(live, tops, bottoms):
        if k * r < s or top == 0.0:
            return 0.0
        margin = min(margin, bottom / top)
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


def _range_bases(proj) -> tuple:
    """Orthonormal bases of the ranges of a projection's blocks (eigenvalue > 1/2)."""
    return tuple(np.ascontiguousarray(v[:, w > 0.5])
                 for w, v in _lapack("eigh", [_hermitized(b) for b in proj.blocks]))


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
        size = _shape_int(size)
        if size < 1:
            raise ValueError("ambient matrix size must be >= 1")
        ambient = alg.matrix_algebra(size)
        for name, proj in (("p", p), ("q", q)):
            if proj.algebra != ambient:
                raise ShapeMismatchError(
                    f"{name} must live in the ambient algebra M_{size}(A)"
                )
            residuals = (proj - proj.adjoint(), proj * proj - proj)
            if any(_gate_norm(r.blocks, PROJECTION_TOL) > PROJECTION_TOL for r in residuals):
                raise DomainError(f"{name} is not a projection (p = p* = p^2)")
        self.alg = alg
        self.size = size
        self.ambient = self.right_algebra = self.left_algebra = ambient
        self.block_shapes = tuple((k, k) for k in ambient.block_sizes)
        self.p = p
        self.q = q
        self._row_bases = _range_bases(p)
        self._col_bases = _range_bases(q)
        self.compressed_shapes = tuple(
            (u.shape[1], v.shape[1]) for u, v in zip(self._row_bases, self._col_bases)
        )
        if not any(s for _, s in self.compressed_shapes):
            raise DegenerateModuleError(
                "q = 0 yields the zero corner algebra; the module is degenerate"
            )
        # Blocks where q vanishes drop out of the compressed right algebra.
        self._live = tuple(i for i, (_, s) in enumerate(self.compressed_shapes) if s)
        self._core_algebra = Algebra(
            tuple(self.compressed_shapes[i][1] for i in self._live)
        )

    # -- structure -----------------------------------------------------------

    def _core(self, i, block):
        return self._row_bases[i].conj().T @ block @ self._col_bases[i]

    def _embed(self, i, core):
        return self._row_bases[i] @ core @ self._col_bases[i].conj().T

    def _project(self, i, g):
        return self.p.blocks[i] @ g @ self.q.blocks[i]

    def right_algebra_unit(self) -> AlgebraElement:
        return self.q

    def _less_unit(self, blocks) -> list:
        return [b - q for b, q in zip(blocks, self.q.blocks)]

    def _rounding_bound(self, k):
        # p g q rounds relative to ||g||, not to ||p g q||: no bound from the shapes alone holds.
        return np.inf

    def _stacked_space(self, k):
        """``diag(p, ..., p) M_{kN}(A) diag(q, 0, ..., 0)``: the entries go down the
        first block column."""
        big = self.alg.matrix_algebra(k * self.size)
        p = AlgebraElement._wrap(big, [np.kron(np.eye(k), pb) for pb in self.p.blocks])
        q = AlgebraElement._wrap(big, [np.pad(qb, (0, (k - 1) * len(qb))) for qb in self.q.blocks])
        return CornerSpace(self.alg, k * self.size, p, q)

    def _compress(self, blocks):
        v = self._col_bases
        return [v[i].conj().T @ blocks[i] @ v[i] for i in self._live]

    def _expand(self, blocks):
        expanded = [np.zeros((k, k), dtype=np.complex128) for k in self.ambient.block_sizes]
        for i, cb in zip(self._live, blocks):
            expanded[i] = self._col_bases[i] @ cb @ self._col_bases[i].conj().T
        return expanded

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
        node = _Json.of(data)
        alg, size = Algebra.from_json_dict(node["algebra"]), node["size"].shape()
        ambient = node.build(alg.matrix_algebra, size)
        p, q = (AlgebraElement.from_json_dict(ambient, node[key]) for key in ("p", "q"))
        return node.build(cls, alg, size, p, q)

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
    node = _Json.of(data)
    return (ModuleSpace if isinstance(node.value, dict) and "rows" in node.value else CornerSpace).from_json_dict(node)


def tuple_from_json_list(data) -> ModuleTuple:
    """The one JSON-to-element path: every entry must declare the first's space
    and lie in it, within ``PROJECTION_TOL`` relative; blocks are kept bit for bit."""
    items = _Json.of(data).items()
    first = items[0]["space"]
    space = space_from_json_dict(first)

    def entry(declared, blocks):
        if declared != first.value:
            raise ShapeMismatchError("tuple entries declare different spaces")
        x = ModuleElement._wrap(space, blocks)
        moved = _gate_norm((x - ModuleElement(space, x.blocks)).blocks, PROJECTION_TOL)
        # Only an entry that moves needs its own norm.
        if moved > PROJECTION_TOL and moved > PROJECTION_TOL * x.norm():
            raise ValueError(
                f"element is not in its space: projecting it moves it by {moved:.3g}"
            )
        return x

    return ModuleTuple(tuple(item.build(entry, item["space"].value, [m.matrix() for m in item["blocks"].items()])
                             for item in items))
