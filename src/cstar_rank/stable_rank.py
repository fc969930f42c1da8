"""Constructive stable-rank machinery for matrix Hilbert modules.

The pieces fit together as follows.  The ceiling formula
``ceil((sr_A + m - 1) / n)``, :func:`sr_formula`, which lives with the numpy-free
scalar rules, predicts the stable rank of the ``n x m`` matrix module.
:func:`warfield_b_to_a` turns a dual witness of an ``(n+1)``-tuple
into reduction coefficients that collapse the last entry onto the first
``n``, stored as one block matrix per left-algebra block.
:func:`bass_reduce` manufactures such a witness in closed form, the polar
completion of the canonical one's head, mirroring the classical Bass
reduction argument.  Both are the one-entry case of Warfield's step,
which collapses any number of trailing entries at once when the witness's
truncation is unimodular.  :func:`hv_pad` appends a spectral bump
``y_k = u_k * (eps - b0)^+/eps`` that makes any tuple unimodular, and
:func:`hv_perturb` chains padding with one reduction of all the padding
entries and a damping factor ``(1 + k*b)^{-1}`` to move an arbitrary tuple
onto a unimodular one while travelling less than ``sqrt(eps) + eps``.  One
spectrum of the Gram sum ``b0`` picks its route: where ``b0 >= eps`` the bump is 0
and the closed form is the tuple itself, which moves 0; only the other route pads.
Its gates, like every norm only compared with a bound, go through ``algebra._gate_norm``.

The reductions stack each input once (``ModuleTuple._stacked``) and build a tuple only for their
outputs.  Each intermediate tuple is decided once, by the :func:`dual_witness` rule on its stacked
form, and the dual is passed forward (a polar completion comes with its own dual); the outputs by
the rule of :func:`is_unimodular`, whose margin each pipeline's private body returns with its output.

:func:`density_experiment` estimates how often random Gaussian tuples are
unimodular, with deterministic per-trial seeding.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from ._version import __version__
from .algebra import AlgebraElement, _Blocks, _Json, _gate_norm, _shifted_polar
from .errors import (
    DomainError,
    ReductionFailedError,
    ShapeMismatchError,
    _InputError,
)
from .hilbert_module import (
    ModuleTuple,
    _is_unimodular_at,
    _same_space,
    _stacked_dual,
    space_from_json_dict,
)
from .sampling import draw_size, trial_draws
# sr_formula is defined with the numpy-free scalar rules and re-exported here.
from .scalars import (DEFAULT_TOL, WITNESS_TOL, _require_positive_finite, _shape_int,  # noqa: F401
                      sr_formula)

#: Absolute residual accepted for the telescoping identity of the reduction.
TELESCOPE_TOL = 1e-7


@dataclass(frozen=True)
class PerturbationParams:
    """Knobs for the reduction and perturbation pipelines.

    The reductions are deterministic and draw nothing: ``seed`` is validated
    and echoed in reports, but no reduction reads it.
    """

    eps: float
    tol: float = DEFAULT_TOL
    seed: int = 0

    def __post_init__(self):
        _require_positive_finite("eps", self.eps)
        _require_positive_finite("tol", self.tol)
        object.__setattr__(self, "seed", _shape_int(self.seed))


class ReductionCoefficients(_Blocks):
    """A rectangular array of left-algebra coefficients acting on tuples.

    An ``n x r`` array maps an ``r``-tuple ``(y_1, ..., y_r)`` to the
    ``n``-tuple with entries ``sum_k a[j][k] . y_k``: one adjointable operator
    ``M^r -> M^n``, stored in ``blocks`` as one read-only ``(n L) x (r L)``
    matrix per left-algebra block of size ``L``, whose largest singular value
    is :func:`adjointable_norm`; ``coeffs`` builds views of them on read.
    Arrays of one shape over one space add, subtract and scale blockwise.
    """

    __slots__ = ("space",)
    _parent = "space"
    _kind, _foreign = "ReductionCoefficients", "coefficient arrays differ in space or shape"

    def __init__(self, space, coeffs):
        coeffs = tuple(tuple(row) for row in coeffs)
        if not coeffs or not coeffs[0]:
            raise ValueError("coefficient array must be nonempty")
        left = space.left_algebra
        for row in coeffs:
            if len(row) != len(coeffs[0]):
                raise ShapeMismatchError("coefficient rows have unequal lengths")
            if any(a.algebra != left for a in row):
                raise ShapeMismatchError("coefficients must live in the left algebra of the space")
        super().__init__(space, [np.block([[a.blocks[i] for a in row] for row in coeffs])
                                 for i in range(left.num_blocks)],
                         [(len(coeffs) * k, len(coeffs[0]) * k) for k in left.block_sizes])

    @property
    def shape(self) -> tuple:
        return tuple(d // self.space.left_algebra.block_sizes[0] for d in self.blocks[0].shape)

    @property
    def coeffs(self) -> tuple:
        left = self.space.left_algebra
        # Per block the (n, L, r, L) form: coefficient (j, m) is [j, :, m].
        n, r = self.shape
        views = [b.reshape(n, k, r, k) for b, k in zip(self.blocks, left.block_sizes)]
        return tuple(
            tuple(AlgebraElement._wrap(left, [v[j, :, m] for v in views]) for m in range(r))
            for j in range(n)
        )

    def apply(self, entries) -> list:
        """Image of an ``r``-tuple: the block matrices times its stacked form, projected."""
        n_out, n_in = self.shape
        if len(entries) != n_in:
            raise ShapeMismatchError(
                f"expected {n_in} tuple entries, got {len(entries)}"
            )
        t = ModuleTuple(tuple(entries))
        if t.space.left_algebra != self.space.left_algebra:
            raise ShapeMismatchError("left operand is not in the left algebra of the space")
        images = [(c @ x).reshape(n_out, *shape)
                  for c, x, shape in zip(self.blocks, t._stacked(), t.space.block_shapes)]
        return [t.space._projected(blocks) for blocks in zip(*images)]

    def to_json_dict(self) -> dict:
        return {
            "space": self.space.to_json_dict(),
            "shape": list(self.shape),
            "entries": [[a.to_json_dict() for a in row] for row in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, data) -> "ReductionCoefficients":
        node = _Json.of(data)
        space = space_from_json_dict(node["space"])
        shape = [n.shape() for n in node["shape"].items()]
        coeffs = [[AlgebraElement.from_json_dict(space.left_algebra, a) for a in row.items()]
                  for row in node["entries"].items()]
        a = node.build(cls, space, coeffs)
        if shape != list(a.shape):
            raise _InputError(f"{node.path}: declared shape {shape}, entries of shape {list(a.shape)}")
        return a


def adjointable_norm(a: ReductionCoefficients) -> float:
    """Norm of the array as an operator ``M^r -> M^n``: the largest singular value of its blocks."""
    return a.norm()


def warfield_forward(t: ModuleTuple, a: ReductionCoefficients) -> ModuleTuple:
    """Collapse the trailing entries of a tuple using reduction coefficients.

    For an ``(n + r)``-tuple and ``n x r`` coefficients, returns the
    ``n``-tuple with entries ``x_j + sum_k a[j][k] . x_{n+k}``.
    """
    n_out, n_in = a.shape
    if len(t) != n_out + n_in:
        raise ShapeMismatchError(
            f"tuple of length {len(t)} does not match coefficient shape {a.shape}"
        )
    _same_space(t, a, "tuple and coefficients live over different spaces")
    head = t.entries[:n_out]
    contrib = a.apply(t.entries[n_out:])
    return ModuleTuple(tuple(x + c for x, c in zip(head, contrib)))


def _split(space, stacked, n: int) -> tuple[list, list]:
    """The stacked forms of the first ``n`` entries and of the rest."""
    cuts = [n * rows for rows, _ in space.block_shapes]
    return [b[:c] for b, c in zip(stacked, cuts)], [b[c:] for b, c in zip(stacked, cuts)]


def warfield_b_to_a(t: ModuleTuple, y: ModuleTuple, tol: float = DEFAULT_TOL) -> ReductionCoefficients:
    """Reduction coefficients from a dual witness with unimodular truncation.

    Preconditions: ``sum_{k<=n+1} <y_k, x_k> = 1`` and the truncation
    ``(y_1, ..., y_n)`` is unimodular.  The truncation's :func:`dual_witness`
    ``z`` decides the second (its refusal is the truncation check), and the
    coefficients are ``a_k = <z_k, y_{n+1}>_L``; they satisfy the telescoping
    identity ``sum_k a_k* . y_k = y_{n+1}``, which forces the collapsed tuple
    to stay unimodular.  Both identities and the collapsed tuple are verified
    before returning.  This is the one-entry case of Warfield's step, which
    collapses ``r`` trailing entries at once with ``a_jk = <z_j, y_{n+k}>_L``.
    """
    n = len(t) - 1
    if n < 1:
        raise ShapeMismatchError("need a tuple of length at least 2")
    if len(y) != n + 1:
        raise ShapeMismatchError(f"witness length {len(y)} does not match tuple length {n + 1}")
    _same_space(y, t)
    space, x, w = t.space, t._stacked(), y._stacked()
    _require_unit_pairing(space, w, x, "witness pairing residual")
    head, tail = _split(space, w, n)
    try:
        z = _stacked_dual(space, head, tol)[0]
    except DomainError as exc:
        raise DomainError(f"truncated witness (y_1, ..., y_n) is not unimodular: {exc}") from exc
    return _warfield(space, x, n, head, tail, z, tol)[0]


def _warfield(space, x, n: int, head, tail, z, tol: float):
    """Warfield's step on stacked forms, on the entries of ``x`` after the first ``n``, from
    a witness ``(head, tail)`` whose pairing with ``x`` is invertible and a dual ``z`` of
    its head: the coefficients ``a_jk = z_j tail_k*``, the stacked collapsed tuple, whose
    pairing with ``head`` is that of the witness with ``x``, and the margin that decided
    it.  ``z`` is certified by its pairing residual alone."""
    _require_unit_pairing(space, head, z, "truncation dual residual")

    # Per block, a_jk = z_j tail_k*: the stacked dual times the stacked tail's adjoint.
    a = [zb @ yb.conj().T for zb, yb in zip(z, tail)]
    # The telescoping identity sum_j a_jk* head_j = tail_k, one product per block.
    _require_residual([ab.conj().T @ hb - yb for ab, hb, yb in zip(a, head, tail)],
                      TELESCOPE_TOL, "telescoping residual")

    # warfield_forward on stacked forms: a_jk = z_j tail_k* acts inside the corner already.
    kept, collapsed = _split(space, x, n)
    reduced = [hb + ab @ yb for hb, ab, yb in zip(kept, a, collapsed)]
    margin = _is_unimodular_at(space, reduced, tol)
    if not margin:
        raise DomainError("reduced tuple failed the unimodularity postcondition")
    return ReductionCoefficients._wrap(space, a), reduced, margin


def _require_unit_pairing(space, y, x, what: str) -> None:
    """The witness gate: the stacked ``y`` pairs with ``x`` to the unit, within ``WITNESS_TOL``."""
    _require_residual(space._less_unit(space._stacked_pairing(y, x)), WITNESS_TOL, what)


def _require_residual(blocks, bound: float, what: str) -> None:
    """The one residual gate: ``DomainError`` when the norm of ``blocks`` exceeds ``bound``."""
    residual = _gate_norm(blocks, bound)
    if residual > bound:
        raise DomainError(f"{what} {residual:.3g} exceeds {bound:g}")


def _refuse_below_stable_rank(space, n: int) -> None:
    """The one counting-bound refusal: no ``n``-tuple is unimodular, so nothing is reduced."""
    if space.rank_obstruction(n):
        # A space that is not full has no stable rank: ModuleNotFullError.
        raise ReductionFailedError(
            f"no reduction can succeed: the counting bound n*r_i >= s_i fails in some block "
            f"for n={n}, below the stable rank {space._full_stable_rank()} of the space"
        )


def bass_reduce(t: ModuleTuple, params: PerturbationParams) -> ReductionCoefficients:
    """Collapse the last entry of a unimodular ``(n+1)``-tuple onto the rest.

    Takes the canonical dual witness ``z`` of the tuple and replaces its first
    ``n`` entries by their polar completion: per block, with ``Z_h = W |Z_h|``
    the stacked core of ``z_1..z_n`` (tall once the counting bound passes) and
    ``eta = ||z|| = lambda_min(G)^{-1/2}``, read from the ``eigvalsh`` that decides
    the tuple, the head ``c = W (|Z_h| + eta)`` has the truncation dual
    ``w = W (|Z_h| + eta)^{-1}``, and the pairing ``d* = 1 + eta |Z_h| G``, with
    ``G`` the Gram sum, is similar to ``1 + eta G^1/2 |Z_h| G^1/2 >= 1``.
    Warfield's step needs only that pairing to be invertible, so it takes the
    witness ``(c, z_tail)`` as it is, with ``w``.  The coefficients
    ``W (|Z_h| + eta)^{-1} z_tail*`` have norm at most 1 and do not move when
    the tuple is scaled.  This is the one-entry case of the collapse that
    :func:`hv_perturb` runs on all of its padding entries at once.

    Raises :class:`ReductionFailedError` when the counting bound rules out
    every truncation.  Of ``params`` it reads only ``tol``.
    """
    return _bass_reduce(t, params.tol)[0]


def _bass_reduce(t: ModuleTuple, tol: float):
    """:func:`bass_reduce`'s coefficients, with the stacked reduced tuple and the margin that decided it."""
    if len(t) < 2:
        raise ShapeMismatchError("need a tuple of length at least 2 to reduce")
    x = t._stacked()
    z, eta, _ = _stacked_dual(t.space, x, tol)
    _refuse_below_stable_rank(t.space, len(t) - 1)
    return _collapse(t.space, x, z, eta, len(t) - 1, tol)


def _collapse(space, x, z, eta: float, n: int, tol: float):
    """The Bass reduction of the entries of the stacked ``x`` after the first ``n >= 1``,
    from its stacked canonical dual ``z`` and ``eta = ||z||``: only ``z_1..z_n`` are
    replaced, by their polar completion; the caller has refused ``n`` below the counting bound."""
    head, tail = _split(space, z, n)
    # eta = ||z|| >= ||z_tail|| is homogeneous of degree 1 in z, so ||a|| <= 1 at every scale.
    heads, duals = _shifted_polar(space._stacked_cores(n, head), eta)
    return _warfield(space, x, n, space._stacked_from_cores(n, heads), tail,
                     space._stacked_from_cores(n, duals), tol)


def _bump(w, eps: float):
    """The bump ``(eps - w)^+ / eps`` of a Gram sum's eigenvalues ``w``, in real arithmetic, so
    no ``1/eps`` overflows and every ``w >= eps`` gives an exact 0."""
    return (eps - w).clip(0.0, eps) / eps


def _pad_with_bump(space, x, padding, tol: float):
    """The stacked ``x`` over its ``padding``, with its stacked dual, norm and margin: decided by
    the :func:`dual_witness` rule."""
    padded = [np.concatenate((xb, pb)) for xb, pb in zip(x, padding)]
    try:
        return (padded, *_stacked_dual(space, padded, tol))
    except DomainError as exc:
        raise DomainError(
            "padded tuple failed the unimodularity postcondition: the margin is relative, and padding lifts "
            "eigenvalues below eps only to 1 + eps at most, so Gram sums above about (1 + eps)/tol fail"
        ) from exc


def hv_pad(t: ModuleTuple, u: ModuleTuple, eps: float, tol: float = DEFAULT_TOL) -> ModuleTuple:
    """Append the spectral bump of a normalized tuple, forcing unimodularity.

    With ``b0`` the Gram sum of ``t`` and ``b = (1 - b0/eps)^+ = (eps - b0)^+/eps``,
    the returned tuple is ``(x_1, ..., x_n, u_1 b, ..., u_r b)``.  Its Gram sum is
    ``b0 + b^2``, a function of ``b0`` with spectrum bounded away from zero,
    so the result is always unimodular.  ``u`` must satisfy
    ``sum <u_k, u_k> = 1`` (normalize with :func:`normalize_tuple` first).
    """
    return _hv_pad(t, u, eps, tol)[0]


def _hv_pad(t: ModuleTuple, u: ModuleTuple, eps: float, tol: float):
    """:func:`hv_pad`'s padded tuple and the margin that decided it."""
    _require_positive_finite("eps", eps)
    _same_space(t, u, "tuples live over different spaces")
    space, us, x = t.space, u._stacked(), t._stacked()
    _require_unit_pairing(space, us, us, "padding tuple is not normalized: ||<u,u> - 1|| =")
    b0 = space._stacked_pairing(x, x)
    bump = space._right_calculus(b0)(lambda w: _bump(w, eps))
    padded, _, _, margin = _pad_with_bump(space, x, [ub @ bb for ub, bb in zip(us, bump)], tol)
    return space._tuple_from_stacked(padded), margin


def hv_perturb(t: ModuleTuple, params: PerturbationParams) -> ModuleTuple:
    """Move a tuple onto a nearby unimodular one, at distance below
    ``sqrt(eps) + eps``.

    The route comes from one spectrum: ``t`` is stacked once, and one ``eigvalsh`` of
    its Gram sum ``b0`` gives its unimodularity margin and smallest eigenvalue.  Where
    that eigenvalue is at least ``eps`` the bump ``b = (eps - b0)^+/eps`` is exactly 0,
    as it is wherever its clip comes out 0, so the padding, ``a`` and ``k - 1`` vanish
    and ``d = 1``: the closed form is ``t`` itself, decided by that margin; it moves 0.

    Otherwise, on the stacked tuple, one ``eigh`` of ``b0`` gives ``b = v f(w) v*``;
    pad ``t`` with ``u b``, ``u`` the deterministic shortest unimodular tuple, never built (its
    stacked cores are the identity over zero rows), and decide the padded tuple by its dual; collapse
    all ``r`` padding entries in one Bass reduction (Warfield's step, the ``r``-entry
    case of :func:`bass_reduce`), which returns the ``n x r`` coefficients ``a``; damp
    with ``d = 1 + k b``, ``k`` the smallest integer exceeding ``norm(a)/eps``, and
    return ``(x + a . y) d^{-1}``, ``d^{-1} = v (1 + k f(w))^{-1} v*``.  The damping
    bounds the distance while keeping unimodularity; both routes verify both.

    A space that is not full has no unimodular tuple: :class:`ModuleNotFullError`.
    A tuple shorter than the stable rank of the space can never be reduced to a
    unimodular one (the counting bound): :class:`ReductionFailedError`, before
    its Gram sum is formed.
    """
    return _hv_perturb(t, params)[0]


def _hv_perturb(t: ModuleTuple, params: PerturbationParams):
    """:func:`hv_perturb`'s moved tuple and the margin that decided it."""
    space, eps = t.space, params.eps
    _refuse_below_stable_rank(space, len(t))
    x = t._stacked()
    b0 = space._stacked_pairing(x, x)
    margin, _, lows, _ = space._gram_spectrum(b0)
    calculus = space._right_calculus(b0) if min(lows) < eps else None
    bump = calculus(lambda w: _bump(w, eps)) if calculus else None
    if bump is None or not any(b.any() for b in bump):
        moved, stacked = t, x
    else:
        if eps < sys.float_info.min:  # ||a|| <= 1, but ||a||/eps may have no float value
            raise DomainError(
                f"a nonzero bump needs the damping k = floor(||a||/eps) + 1, "
                f"which may overflow at a subnormal eps={eps:g}"
            )
        padded, dual, eta, _ = _pad_with_bump(space, x, space._standard_padding(bump), params.tol)
        coeffs, reduced, _ = _collapse(space, padded, dual, eta, len(t), params.tol)
        k = math.floor(adjointable_norm(coeffs) / eps) + 1
        # d = 1 + k*b >= 1 shares the eigenvectors of b, so its inverse needs no inversion.
        damp_inv = calculus(lambda w: 1.0 / (1.0 + k * _bump(w, eps)))
        stacked = [rb @ db for rb, db in zip(reduced, damp_inv)]
        moved = space._tuple_from_stacked(stacked)

    # The zero route decides t on the margin its route was read from, and t moves 0.
    decided = _is_unimodular_at(space, stacked, params.tol, margin if moved is t else None)
    if not decided:
        raise DomainError("perturbed tuple failed the unimodularity postcondition")
    bound = math.sqrt(eps) + eps
    distance = 0.0 if moved is t else _gate_norm([xb - mb for xb, mb in zip(x, stacked)], bound)
    if not distance < bound:
        raise DomainError(
            f"perturbed tuple moved {distance:.6g}, not below sqrt(eps)+eps = {bound:.6g}"
        )
    return moved, decided


@dataclass(frozen=True)
class DensityReport:
    """Outcome of a seeded Monte-Carlo unimodularity density estimate.

    A fraction of 1.0 is evidence of density, not a proof; the zero case with
    ``exact_obstruction`` set is exact, because tuples below the counting
    bound can never be unimodular.
    """

    space: dict
    k: int
    trials: int
    seed: int
    tol: float
    unimodular_fraction: float
    predicted_sr: object
    exact_obstruction: bool
    version: str = __version__

    def __post_init__(self):
        if not 0.0 <= self.unimodular_fraction <= 1.0:
            raise ValueError("unimodular_fraction must lie in [0, 1]")
        if self.exact_obstruction and self.unimodular_fraction != 0.0:
            raise ValueError(
                "rank obstruction contradicts a nonzero unimodular fraction"
            )

    def to_json_dict(self) -> dict:
        data = asdict(self)
        data["tolerance"] = data.pop("tol")
        return data


def density_experiment(
    space, k: int, trials: int, seed: int, tol: float = DEFAULT_TOL
) -> DensityReport:
    """Fraction of random Gaussian ``k``-tuples that are unimodular.

    Trial ``i`` draws its randomness from the derived seed ``seed XOR i``, so
    the report is reproducible and independent of evaluation order.  The
    trials are batched: below 5 trials each trial's draws are
    ``rng_from_seed``'s, and from 5 on one pass seeds all trials.  Each trial
    takes its ``k`` elements' draws in one call.  ``space._unimodular_count`` decides
    the trials by one Cholesky bracket per block, on one product of all trials' stacked
    entries, or else by every margin from ``eigvalsh`` on the tuples' own pairing on a
    trial axis, bit for bit that of the tuple ``k`` calls of ``space.random_element`` on the
    trial's generator give; so reports are byte-identical to a trial-by-trial loop.  A cell the counting bound rules
    out draws nothing at a ``tol`` at or above ``space._rounding_bound(k)``: no margin passes.
    """
    k, trials, seed = _shape_int(k), _shape_int(trials), _shape_int(seed)
    if k < 1:
        raise ValueError("k must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _require_positive_finite("tol", tol)
    hits = 0 if tol >= space._rounding_bound(k) else space._unimodular_count(
        trial_draws(seed, trials, k * draw_size(space.block_shapes)), k, tol)
    obstructed = space.rank_obstruction(k)
    if obstructed and hits:
        raise DomainError(
            f"{hits} of {trials} random {k}-tuples passed tol={tol:g}, but the "
            f"counting bound rules out every {k}-tuple of this space; tol is "
            f"below the rounding level of the Gram margins"
        )
    return DensityReport(
        space=space.to_json_dict(),
        k=k,
        trials=trials,
        seed=seed,
        tol=tol,
        unimodular_fraction=hits / trials,
        predicted_sr=space.predicted_stable_rank(),
        exact_obstruction=obstructed,
    )
