"""Constructive stable-rank machinery for matrix Hilbert modules.

The pieces fit together as follows.  The ceiling formula
``ceil((sr_A + m - 1) / n)`` predicts the stable rank of the ``n x m`` matrix
module.  :func:`warfield_b_to_a` turns a dual witness of an ``(n+1)``-tuple
into reduction coefficients that collapse the last entry onto the first
``n``.  :func:`bass_reduce` manufactures such a witness by randomly
perturbing the canonical one until its truncation is unimodular, mirroring
the classical Bass reduction argument.  :func:`hv_pad` appends a spectral
bump ``y_k = u_k * (1 - b0/eps)^+`` that makes any tuple unimodular, and
:func:`hv_perturb` chains padding with iterated reductions and a damping
factor ``(1 + k*b)^{-1}`` to move an arbitrary tuple onto a unimodular one
while travelling less than ``sqrt(eps) + eps``.

:func:`density_experiment` estimates how often random Gaussian tuples are
unimodular, with deterministic per-trial seeding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._version import __version__
from .algebra import DEFAULT_TOL, AlgebraElement, _require_positive_finite
from .errors import (
    DomainError,
    ModuleNotFullError,
    ReductionFailedError,
    ShapeMismatchError,
)
from .hilbert_module import (
    ModuleTuple,
    _same_space,
    dual_witness,
    gram,
    inner_left,
    is_full,
    is_unimodular,
    normalize_tuple,
    pairing,
    space_from_json_dict,
)
from .sampling import derived_seed, rng_from_seed

#: Absolute residual accepted for the witness identities ``sum <y, x> = 1``.
WITNESS_TOL = 1e-8

#: Absolute residual accepted for the telescoping identity of the reduction.
TELESCOPE_TOL = 1e-7

#: Starting size of the random perturbations drawn by :func:`bass_reduce`;
#: doubles on every retry.
ETA_INITIAL = 1e-3


def sr_formula(sr_a: int, n: int, m: int) -> int:
    """Stable rank of the ``n x m`` matrix module over a base of stable rank
    ``sr_a``: the ceiling of ``(sr_a + m - 1) / n``."""
    if sr_a < 1 or n < 1 or m < 1:
        raise ValueError("sr_formula needs positive arguments")
    return -(-(sr_a + m - 1) // n)


@dataclass(frozen=True)
class PerturbationParams:
    """Knobs for the randomized reduction and perturbation pipelines."""

    eps: float
    tol: float = DEFAULT_TOL
    max_retries: int = 40
    seed: int = 0

    def __post_init__(self):
        _require_positive_finite("eps", self.eps)
        _require_positive_finite("tol", self.tol)
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")


class ReductionCoefficients:
    """A rectangular array of left-algebra coefficients acting on tuples.

    An ``n x r`` array maps an ``r``-tuple ``(y_1, ..., y_r)`` to the
    ``n``-tuple with entries ``sum_k a[j][k] . y_k``, i.e. it is a block
    matrix over the left algebra acting on stacked module coordinates.
    """

    def __init__(self, space, coeffs):
        coeffs = tuple(tuple(row) for row in coeffs)
        if not coeffs or not coeffs[0]:
            raise ValueError("coefficient array must be nonempty")
        width = len(coeffs[0])
        left = space.left_algebra
        for row in coeffs:
            if len(row) != width:
                raise ShapeMismatchError("coefficient rows have unequal lengths")
            for a in row:
                if a.algebra != left:
                    raise ShapeMismatchError(
                        "coefficients must live in the left algebra of the space"
                    )
        self.space = space
        self.coeffs = coeffs

    @property
    def shape(self) -> tuple:
        return (len(self.coeffs), len(self.coeffs[0]))

    def apply(self, entries) -> list:
        """Image of an ``r``-tuple under the coefficient block matrix."""
        n_out, n_in = self.shape
        if len(entries) != n_in:
            raise ShapeMismatchError(
                f"expected {n_in} tuple entries, got {len(entries)}"
            )
        out = []
        for row in self.coeffs:
            acc = row[0] * entries[0]
            for a, y in zip(row[1:], entries[1:]):
                acc = acc + a * y
            out.append(acc)
        return out

    def to_json_dict(self) -> dict:
        n_out, n_in = self.shape
        return {
            "space": self.space.to_json_dict(),
            "shape": [n_out, n_in],
            "entries": [[a.to_json_dict() for a in row] for row in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, data) -> "ReductionCoefficients":
        space = space_from_json_dict(data["space"])
        left = space.left_algebra
        coeffs = [
            [AlgebraElement.from_json_dict(left, a) for a in row]
            for row in data["entries"]
        ]
        return cls(space, coeffs)


def adjointable_norm(a: ReductionCoefficients) -> float:
    """Norm of the coefficient array as an adjointable operator between tuples:
    the operator norm of the assembled block matrix, per base-algebra block."""
    worst = 0.0
    for i in range(a.space.left_algebra.num_blocks):
        assembled = np.block([[c.blocks[i] for c in row] for row in a.coeffs])
        svals = np.linalg.svd(assembled, compute_uv=False)
        if svals.size:
            worst = max(worst, float(svals[0]))
    return worst


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


def warfield_b_to_a(
    t: ModuleTuple, y: ModuleTuple, z: ModuleTuple, tol: float = DEFAULT_TOL
) -> ReductionCoefficients:
    """Reduction coefficients from a dual witness with unimodular truncation.

    Preconditions: ``sum_{k<=n+1} <y_k, x_k> = 1``, the truncation
    ``(y_1, ..., y_n)`` is unimodular, and ``z`` is a dual of that truncation
    (``sum_{k<=n} <y_k, z_k> = 1``).  The coefficients are
    ``a_k = <z_k, y_{n+1}>_L``; they satisfy the telescoping identity
    ``sum_k a_k* . y_k = y_{n+1}``, which forces the collapsed tuple to stay
    unimodular.  Both facts are verified before returning.
    """
    n = len(t) - 1
    if n < 1:
        raise ShapeMismatchError("need a tuple of length at least 2")
    if len(y) != n + 1 or len(z) != n:
        raise ShapeMismatchError(
            f"witness lengths ({len(y)}, {len(z)}) do not match tuple length {n + 1}"
        )
    space = t.space
    unit = space.right_algebra_unit()

    residual = (pairing(y, t) - unit).norm()
    if residual > WITNESS_TOL:
        raise DomainError(
            f"witness pairing residual {residual:.3g} exceeds {WITNESS_TOL:g}"
        )

    truncated = ModuleTuple(y.entries[:n])
    if not is_unimodular(truncated, tol):
        raise DomainError("truncated witness (y_1, ..., y_n) is not unimodular")

    dual_residual = (pairing(truncated, z) - unit).norm()
    if dual_residual > WITNESS_TOL:
        raise DomainError(
            f"truncation dual residual {dual_residual:.3g} exceeds {WITNESS_TOL:g}"
        )

    a_entries = [inner_left(z[k], y[n]) for k in range(n)]
    a = ReductionCoefficients(space, [[c] for c in a_entries])

    telescoped = a_entries[0].adjoint() * y[0]
    for k in range(1, n):
        telescoped = telescoped + a_entries[k].adjoint() * y[k]
    tele_residual = (telescoped - y[n]).norm()
    if tele_residual > TELESCOPE_TOL:
        raise DomainError(
            f"telescoping residual {tele_residual:.3g} exceeds {TELESCOPE_TOL:g}"
        )

    reduced = warfield_forward(t, a)
    if not is_unimodular(reduced, tol):
        raise DomainError("reduced tuple failed the unimodularity postcondition")
    return a


def bass_reduce(t: ModuleTuple, params: PerturbationParams) -> ReductionCoefficients:
    """Collapse the last entry of a unimodular ``(n+1)``-tuple onto the rest.

    Takes the canonical dual witness ``z`` of the tuple and perturbs its first
    ``n`` entries with Gaussian noise of size ``eta`` (starting at
    ``ETA_INITIAL`` and doubling on every retry) until the perturbed
    truncation is unimodular and the combined pairing stays invertible; the
    witness is then renormalized and handed to :func:`warfield_b_to_a`.

    Raises :class:`ReductionFailedError` with the attempted schedule when the
    retries run out, which is the designated failure when the tuple is
    shorter than the stable rank of the space.
    """
    n = len(t) - 1
    if n < 1:
        raise ShapeMismatchError("need a tuple of length at least 2 to reduce")
    space = t.space
    z = dual_witness(t, params.tol)

    rng = rng_from_seed(params.seed)
    eta = ETA_INITIAL
    schedule = []
    zbar = None
    d_star = None
    for _ in range(params.max_retries):
        schedule.append(eta)
        candidate = ModuleTuple(
            tuple(z[k] + eta * space.random_element(rng) for k in range(n))
        )
        paired = pairing(ModuleTuple(candidate.entries + (z[n],)), t)
        if is_unimodular(candidate, params.tol) and (
            space.right_is_invertible(paired, params.tol)
        ):
            zbar = candidate.entries
            d_star = paired
            break
        eta *= 2.0
    if zbar is None:
        raise ReductionFailedError(
            f"no unimodular perturbation found after {params.max_retries} retries "
            f"(eta up to {schedule[-1]:g}); the tuple may be shorter than the "
            f"stable rank of the space, or tol={params.tol:g} is unsuitable",
            eta_schedule=schedule,
        )

    d = d_star.adjoint()
    d_inv = space.right_inverse(d, params.tol)
    y_entries = [v * d_inv for v in zbar] + [z[n] * d_inv]
    y = ModuleTuple(tuple(y_entries))
    z_trunc = dual_witness(ModuleTuple(tuple(y_entries[:n])), params.tol)
    return warfield_b_to_a(t, y, z_trunc, tol=params.tol)


def _pad_with_bump(t: ModuleTuple, u: ModuleTuple, eps: float, tol: float):
    space = t.space
    unit = space.right_algebra_unit()
    b0 = gram(t)
    bump = space.right_positive_part(unit - b0 / eps)
    padded_entries = t.entries + tuple(uk * bump for uk in u.entries)
    padded = ModuleTuple(padded_entries)
    if not is_unimodular(padded, tol):
        raise DomainError(
            "padded tuple failed the unimodularity postcondition; this can only "
            "happen for inputs far outside the working tolerance"
        )
    return padded, bump


def hv_pad(
    t: ModuleTuple, u: ModuleTuple, eps: float, tol: float = DEFAULT_TOL
) -> ModuleTuple:
    """Append the spectral bump of a normalized tuple, forcing unimodularity.

    With ``b0`` the Gram sum of ``t`` and ``b = (1 - b0/eps)^+``, the returned
    tuple is ``(x_1, ..., x_n, u_1 b, ..., u_r b)``.  Its Gram sum is
    ``b0 + b^2``, a function of ``b0`` with spectrum bounded away from zero,
    so the result is always unimodular.  ``u`` must satisfy
    ``sum <u_k, u_k> = 1`` (normalize with :func:`normalize_tuple` first).
    """
    _require_positive_finite("eps", eps)
    _same_space(t, u, "tuples live over different spaces")
    unit = t.space.right_algebra_unit()
    residual = (gram(u) - unit).norm()
    if residual > WITNESS_TOL:
        raise DomainError(
            f"padding tuple is not normalized: ||<u,u> - 1|| = {residual:.3g}"
        )
    padded, _ = _pad_with_bump(t, u, eps, tol)
    return padded


def hv_perturb(t: ModuleTuple, params: PerturbationParams) -> ModuleTuple:
    """Move a tuple onto a nearby unimodular one, at distance below
    ``sqrt(eps) + eps``.

    Pipeline: pick the deterministic shortest unimodular tuple ``u`` of the
    space and normalize it; pad ``t`` with its spectral bump ``b``; collapse
    the ``r`` padding entries one at a time with :func:`bass_reduce`,
    accumulating the composite coefficients ``a``; damp with
    ``d = 1 + k b`` where ``k`` is the smallest integer exceeding
    ``norm(a)/eps``; return ``(x + a . y) d^{-1}``.  The damping bounds the
    distance while keeping unimodularity, which both get verified before
    returning.

    The tuple must be at least as long as the stable rank of the (full)
    space, otherwise one of the reductions raises
    :class:`ReductionFailedError`.
    """
    space = t.space
    n = len(t)
    eps = params.eps
    if not is_full(space):
        raise ModuleNotFullError("space is not full; no unimodular tuples exist")

    u = normalize_tuple(ModuleTuple(tuple(space.standard_unimodular_tuple())), params.tol)
    r = len(u)
    padded, bump = _pad_with_bump(t, u, eps, params.tol)

    left = space.left_algebra
    # Coefficients of the current tuple over the r padding entries, the only
    # ones the result reads: x rows start at zero, y rows at the unit.
    expansion = [[left.zero()] * r for _ in range(n)] + [
        [left.unit() if i == j else left.zero() for j in range(r)] for i in range(r)
    ]
    current = padded
    for stage in range(r):
        stage_params = replace(params, seed=derived_seed(params.seed, stage))
        column = bass_reduce(current, stage_params)
        col_entries = [row[0] for row in column.coeffs]
        last = expansion[-1]
        expansion = [
            [a + c * b for a, b in zip(row, last)]
            for c, row in zip(col_entries, expansion)
        ]
        current = warfield_forward(current, column)

    coeffs = ReductionCoefficients(space, expansion)
    # Cross-check the accumulated coefficients against the iterated reduction.
    recombined = warfield_forward(
        ModuleTuple(t.entries + padded.entries[n:]), coeffs
    )
    a_norm = adjointable_norm(coeffs)
    drift = (recombined - current).norm()
    if drift > 1e-8 * max(1.0, current.norm(), a_norm):
        raise DomainError(
            f"coefficient accumulation drifted by {drift:.3g}; the reduction is "
            f"too ill-conditioned to certify"
        )

    k = math.floor(a_norm / eps) + 1
    damp = space.right_algebra_unit() + k * bump
    # d = 1 + k*b with b >= 0 is invertible by construction; no tolerance gate.
    damp_inv = space.right_inverse(damp, params.tol, check=False)
    moved = ModuleTuple(tuple(v * damp_inv for v in current.entries))

    if not is_unimodular(moved, params.tol):
        raise DomainError("perturbed tuple failed the unimodularity postcondition")
    distance = (t - moved).norm()
    bound = math.sqrt(eps) + eps
    if not distance < bound:
        raise DomainError(
            f"perturbed tuple moved {distance:.6g}, not below sqrt(eps)+eps = {bound:.6g}"
        )
    return moved


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
        return {
            "space": self.space,
            "k": self.k,
            "trials": self.trials,
            "seed": self.seed,
            "tolerance": self.tol,
            "unimodular_fraction": self.unimodular_fraction,
            "predicted_sr": self.predicted_sr,
            "exact_obstruction": self.exact_obstruction,
            "version": self.version,
        }


def density_experiment(
    space, k: int, trials: int, seed: int, tol: float = DEFAULT_TOL
) -> DensityReport:
    """Fraction of random Gaussian ``k``-tuples that are unimodular.

    Trial ``i`` draws its randomness from the derived seed ``seed XOR i``, so
    the report is reproducible and independent of evaluation order.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    _require_positive_finite("tol", tol)
    hits = 0
    for index in range(trials):
        rng = rng_from_seed(derived_seed(seed, index))
        entries = tuple(space.random_element(rng) for _ in range(k))
        if is_unimodular(ModuleTuple(entries), tol):
            hits += 1
    return DensityReport(
        space=space.to_json_dict(),
        k=k,
        trials=trials,
        seed=seed,
        tol=tol,
        unimodular_fraction=hits / trials,
        predicted_sr=space.predicted_stable_rank(),
        exact_obstruction=space.rank_obstruction(k),
    )
