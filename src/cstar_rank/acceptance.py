"""Full acceptance battery with pinned tolerances.

Each criterion runs one verification campaign at its stated tolerance and
returns a :class:`CriterionResult`; :func:`run_all` executes the whole
battery.  The ``verify-suite`` CLI command and the pytest acceptance module
both print :meth:`CriterionResult.line`, so their pass/fail lines are
identical.  All randomness is derived from fixed seeds.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .algebra import DEFAULT_TOL, Algebra
from .errors import ReductionFailedError
from .hilbert_module import (
    ModuleSpace,
    ModuleTuple,
    dual_witness,
    generation_margin,
    gram,
    inner_right,
    is_unimodular,
    normalize_tuple,
    pairing,
    unimodularity_margin,
)
from .sampling import derived_seed, draw_size, rng_from_seed, trial_draws
from .stable_rank import (
    PerturbationParams,
    bass_reduce,
    density_experiment,
    hv_pad,
    hv_perturb,
    sr_formula,
    warfield_b_to_a,
    warfield_forward,
)

TOL = DEFAULT_TOL


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: str
    seconds: float

    def line(self, timed: bool = True) -> str:
        """The pass/fail line both harnesses print; ``timed=False`` drops the time column."""
        status = "PASS" if self.passed else "FAIL"
        seconds = f" ({self.seconds:6.1f}s)" if timed else ""
        return f"{status}  {self.name:<24}{seconds}  {self.details}"


def _criterion(name):
    """Turn a body ``fn(failures) -> details`` into a timed criterion.

    The body appends one message per failed check to ``failures`` and returns
    the details string of a pass; a failed criterion shows its first three
    messages instead.
    """

    def decorate(body):
        @functools.wraps(body)
        def criterion() -> CriterionResult:
            started = time.time()
            failures = []
            details = body(failures)
            if failures:
                more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
                details = "; ".join(failures[:3]) + more
            return CriterionResult(name, not failures, details, time.time() - started)

        return criterion

    return decorate


def _random_unimodular_tuple(space, rng, k):
    for _ in range(200):
        t = ModuleTuple(tuple(space.random_element(rng) for _ in range(k)))
        if is_unimodular(t, TOL):
            return t
    raise RuntimeError(f"no unimodular {k}-tuple found in {space!r}")


def _bounded_below(b, low) -> bool:
    """Whether the self-adjoint part of ``b`` exceeds ``low``: ``b - low`` is positive
    definite in every block, which a Cholesky factorization decides.  The library
    takes Gram margins from ``eigvalsh``, so this reference shares no routine with it."""
    try:
        for blk in b.blocks:
            np.linalg.cholesky((blk + blk.conj().T) / 2 - low * np.eye(len(blk)))
    except np.linalg.LinAlgError:
        return False
    return True


# -- criterion 1 -------------------------------------------------------------


@_criterion("formula-grid")
def criterion_formula_grid(failures) -> str:
    """Density fractions across the (base, n, m, k) grid match the ceiling
    formula exactly, and the square case agrees with the classical matrix
    algebra formula.  A cell the counting bound rules out gets its 0 from that
    bound, so its trials' margins are taken too, and none may pass."""
    cells = 0
    seed_counter = 11000
    for base in [(1,), (2,), (1, 2)]:
        alg = Algebra(base)
        for n in range(1, 7):
            for m in range(1, 7):
                space = ModuleSpace(alg, n, m)
                for k in range(1, 5):
                    seed_counter += 1
                    report = density_experiment(space, k, 500, seed_counter, TOL)
                    expected = 0.0 if n * k < m else 1.0
                    cells += 1
                    if report.unimodular_fraction != expected:
                        failures.append(
                            f"base={base} n={n} m={m} k={k}: fraction "
                            f"{report.unimodular_fraction} != {expected}"
                        )
                    if n * k < m:
                        draws = trial_draws(seed_counter, 500, k * draw_size(space.block_shapes))
                        if (space.random_gram_margins(draws, k) > TOL).any():
                            failures.append(f"base={base} n={n} m={m} k={k}: a margin passes tol")
                    if report.exact_obstruction != (n * k < m):
                        failures.append(
                            f"base={base} n={n} m={m} k={k}: obstruction flag wrong"
                        )
                    if report.predicted_sr != sr_formula(1, n, m):
                        failures.append(
                            f"base={base} n={n} m={m}: predicted_sr mismatch"
                        )
    for s in range(1, 21):
        for n in range(1, 21):
            classical = -(-(s - 1) // n) + 1
            if sr_formula(s, n, n) != classical:
                failures.append(f"square case s={s} n={n} disagrees")
    return (f"{cells} grid cells at 500 trials each, obstructed ones by their margins too; "
            f"square-case identity for s,n<=20")


# -- criterion 2 -------------------------------------------------------------


@_criterion("dual-witness")
def criterion_dual_witness(failures) -> str:
    """Dual witnesses pair to one within 1e-8 and certify the Gram lower
    bound min-eig >= 1/||y||^2 - 1e-8, for the canonical witness and for a
    randomized one."""
    runs = 0
    shapes = [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]
    for base in [(1,), (2,), (1, 2)]:
        alg = Algebra(base)
        for rows, cols in shapes:
            space = ModuleSpace(alg, rows, cols)
            rng = rng_from_seed(derived_seed(22000, rows * 101 + cols * 11 + len(base)))
            unit = space.right_algebra_unit()
            for _ in range(500):
                t = _random_unimodular_tuple(space, rng, 1)
                x = t[0]
                witness = dual_witness(t, TOL)
                y = witness[0]
                residual = (inner_right(y, x) - unit).norm()
                if residual > 1e-8:
                    failures.append(f"{base}/{rows}x{cols}: residual {residual:.3g}")
                    continue
                low = 1.0 / y.norm() ** 2 - 1e-8
                if not _bounded_below(gram(t), low):
                    failures.append(f"{base}/{rows}x{cols}: Gram bound violated")
                    continue
                # Second witness: add a component orthogonal to x in the pairing.
                w = space.random_element(rng)
                s = inner_right(w, x)
                b_inv = space.right_inverse(gram(t), TOL)
                y2 = y + (w - x * (b_inv.adjoint() * s.adjoint()))
                res2 = (inner_right(y2, x) - unit).norm()
                if res2 > 1e-8:
                    failures.append(f"{base}/{rows}x{cols}: randomized pairing {res2:.3g}")
                    continue
                if not _bounded_below(gram(t), 1.0 / y2.norm() ** 2 - 1e-8):
                    failures.append(f"{base}/{rows}x{cols}: randomized Gram bound")
                    continue
                runs += 1
    return f"{runs} unimodular singletons, canonical and randomized witnesses"


# -- criterion 3 -------------------------------------------------------------


@_criterion("um-equals-gen")
def criterion_um_equals_gen(failures) -> str:
    """The Gram-invertibility test and the span-map generator oracle agree
    on every sampled tuple away from the tolerance boundary."""
    compared = 0
    borderline = 0
    low, high = TOL / 10.0, TOL * 10.0
    cell = 0
    for base in [(1,), (2,), (3,), (1, 2), (2, 3)]:
        alg = Algebra(base)
        for n in range(1, 5):
            for m in range(1, 5):
                space = ModuleSpace(alg, n, m)
                for k in range(1, 5):
                    cell += 1
                    rng = rng_from_seed(derived_seed(33000, cell))
                    for _ in range(7):
                        t = ModuleTuple(
                            tuple(space.random_element(rng) for _ in range(k))
                        )
                        um_margin = unimodularity_margin(t)
                        gen_margin = generation_margin(t)
                        if (low <= um_margin <= high) or (low <= gen_margin <= high):
                            borderline += 1
                            continue
                        compared += 1
                        if (um_margin > TOL) != (gen_margin > TOL):
                            failures.append(
                                f"base={base} n={n} m={m} k={k}: um={um_margin:.3g} "
                                f"gen={gen_margin:.3g}"
                            )
    if compared < 2000:
        failures.append(f"only {compared} tuples compared, need >= 2000")
    return f"{compared} tuples agree on both routes ({borderline} borderline excluded)"


# -- criterion 4 -------------------------------------------------------------


def _warfield_instance(space, rng, n):
    """A tuple x with sum <y_k, x_k> = 1 for a witness y whose head is
    unimodular, plus a random component that the pairing cannot see."""
    head = _random_unimodular_tuple(space, rng, n)
    y = ModuleTuple(head.entries + (space.random_element(rng),))
    b_inv = space.right_inverse(gram(y), TOL)
    base_x = [yk * b_inv for yk in y.entries]
    noise = [space.random_element(rng) for _ in range(n + 1)]
    s = pairing(y, ModuleTuple(tuple(noise)))
    x_entries = tuple(
        bx + nk - yk * (b_inv * s)
        for bx, nk, yk in zip(base_x, noise, y.entries)
    )
    return ModuleTuple(x_entries), y


@_criterion("warfield-reduction")
def criterion_warfield(failures) -> str:
    """Constructed witness instances always reduce to unimodular tuples, with
    the telescoping identity holding to 1e-7."""
    configs = [
        (1, 1, 1, (1,)),
        (1, 1, 2, (2,)),
        (2, 1, 1, (1, 2)),
        (2, 2, 1, (2,)),
        (1, 2, 2, (1,)),
        (2, 3, 2, (1, 2)),
        (3, 2, 1, (3,)),
    ]
    runs = 0
    for i in range(300):
        rows, cols, n, base = configs[i % len(configs)]
        rng = rng_from_seed(derived_seed(44000, i))
        space = ModuleSpace(Algebra(base), rows, cols)
        t, y = _warfield_instance(space, rng, n)
        coeffs = warfield_b_to_a(t, y, tol=TOL)
        reduced = warfield_forward(t, coeffs)
        if not is_unimodular(reduced, TOL):
            failures.append(f"run {i}: reduced tuple not unimodular")
            continue
        telescoped = coeffs.coeffs[0][0].adjoint() * y[0]
        for k in range(1, n):
            telescoped = telescoped + coeffs.coeffs[k][0].adjoint() * y[k]
        residual = (telescoped - y[n]).norm()
        if residual > 1e-7:
            failures.append(f"run {i}: telescoping residual {residual:.3g}")
            continue
        runs += 1
    return f"{runs}/300 constructed instances reduced with telescoping residual <= 1e-7"


# -- criterion 5 -------------------------------------------------------------


@_criterion("herman-vaserstein")
def criterion_herman_vaserstein(failures) -> str:
    """The padding always lands in the unimodular set, and the perturbation
    pipeline returns unimodular tuples within sqrt(eps) + eps of the input."""
    shapes = [
        (1, 1, 1, (1,)),
        (1, 2, 2, (2,)),
        (2, 2, 1, (1, 2)),
        (2, 3, 2, (2, 3)),
    ]
    perturb_runs = 0
    run = 0
    for rows, cols, n, base in shapes:
        space = ModuleSpace(Algebra(base), rows, cols)
        for eps in (0.01, 0.1, 1.0):
            bound = math.sqrt(eps) + eps
            for i in range(200):
                run += 1
                seed = derived_seed(55000, run)
                rng = rng_from_seed(seed)
                t = ModuleTuple(tuple(space.random_element(rng) for _ in range(n)))
                try:
                    moved = hv_perturb(t, PerturbationParams(eps=eps, tol=TOL, seed=seed))
                except Exception as exc:
                    failures.append(f"{base}/{rows}x{cols} eps={eps} run {i}: {exc}")
                    continue
                distance = (t - moved).norm()
                if not is_unimodular(moved, TOL) or not distance < bound:
                    failures.append(
                        f"{base}/{rows}x{cols} eps={eps} run {i}: "
                        f"distance {distance:.4g} bound {bound:.4g}"
                    )
                    continue
                perturb_runs += 1
    pad_runs = 0
    for i in range(500):
        rows, cols, n, base = shapes[i % len(shapes)]
        eps = (0.1, 1.0, 10.0)[i % 3]
        rng = rng_from_seed(derived_seed(56000, i))
        space = ModuleSpace(Algebra(base), rows, cols)
        t = ModuleTuple(tuple(space.random_element(rng) for _ in range(n)))
        r = -(-cols // rows)
        u = normalize_tuple(
            _random_unimodular_tuple(space, rng, r), TOL
        )
        padded = hv_pad(t, u, eps, TOL)
        if not is_unimodular(padded, TOL):
            failures.append(f"pad run {i}: not unimodular")
            continue
        pad_runs += 1
    return f"{perturb_runs} perturbations within bound; {pad_runs}/500 paddings unimodular"


# -- criterion 6 -------------------------------------------------------------


@_criterion("negative-control")
def criterion_negative_control(failures) -> str:
    """In the 1 x 2 module a single row is never left invertible, so both
    reduction pipelines must fail with the designated error every time."""
    space = ModuleSpace(Algebra((1,)), 1, 2)
    for i in range(100):
        rng = rng_from_seed(derived_seed(66000, i))
        t = _random_unimodular_tuple(space, rng, 2)
        try:
            bass_reduce(t, PerturbationParams(eps=0.1, tol=TOL, seed=i))
            failures.append(f"bass run {i}: unexpectedly succeeded")
        except ReductionFailedError:
            pass
    for i in range(100):
        rng = rng_from_seed(derived_seed(67000, i))
        t = ModuleTuple((space.random_element(rng),))
        try:
            hv_perturb(t, PerturbationParams(eps=0.1, tol=TOL, seed=i))
            failures.append(f"hv run {i}: unexpectedly succeeded")
        except ReductionFailedError:
            pass
    return "100 reduction attempts and 100 perturbation attempts all failed as designated"


# -- criterion 7 -------------------------------------------------------------


@_criterion("kernel-numerics")
def criterion_kernel_numerics(failures) -> str:
    """C*-identity, functional calculus decomposition and inversion
    roundtrips hold at their pinned tolerances."""
    bases = [(1,), (2,), (3,), (1, 2), (2, 3)]
    per_base = 100  # 5 bases x 100 = 500 samples
    for b_idx, base in enumerate(bases):
        alg = Algebra(base)
        rng = rng_from_seed(derived_seed(77000, b_idx))
        unit = alg.unit()
        for i in range(per_base):
            a = alg.random_element(rng)
            # Independent computation of the squared norm, straight from the
            # raw blocks.
            direct_sq = max(
                float(np.linalg.svd(blk, compute_uv=False)[0]) for blk in a.blocks
            ) ** 2
            cstar = abs((a.adjoint() * a).norm() - direct_sq)
            if cstar > 1e-10 * direct_sq:
                failures.append(f"{base} run {i}: C*-identity off by {cstar:.3g}")
                continue

            h = (a + a.adjoint()) * 0.5
            pos = h.positive_part()
            neg = (-h).positive_part()
            scale = max(h.norm(), 1e-300)
            if (h - (pos - neg)).norm() > 1e-10 * scale:
                failures.append(f"{base} run {i}: decomposition failed")
                continue
            if (pos * neg).norm() > 1e-10 * scale:
                failures.append(f"{base} run {i}: parts not orthogonal")
                continue

            g = alg.random_element(rng)
            well = g + (2.0 * g.norm() + 1.0) * unit
            inv = well.inverse(TOL)
            if (well * inv - unit).norm() > 1e-8 or (inv * well - unit).norm() > 1e-8:
                failures.append(f"{base} run {i}: inverse roundtrip")
                continue
            if (inv.inverse(TOL) - well).norm() > 1e-8 * well.norm():
                failures.append(f"{base} run {i}: double inverse drift")
                continue

            pd = g.adjoint() * g + unit
            root = pd.inv_sqrt(TOL)
            if (root * pd * root - unit).norm() > 1e-8:
                failures.append(f"{base} run {i}: inv_sqrt roundtrip")
                continue
    return "500 samples: C*-identity 1e-10, calculus 1e-10, roundtrips 1e-8"


# -- criterion 8 -------------------------------------------------------------


@_criterion("reproducibility")
def criterion_reproducibility(failures) -> str:
    """Identical seeds give bit-identical density reports, both through the
    library and through the CLI."""
    from . import cli

    space = ModuleSpace(Algebra((1, 2)), 2, 3)
    first = density_experiment(space, 2, 300, 12345, TOL)
    second = density_experiment(space, 2, 300, 12345, TOL)
    if first != second:
        failures.append("library reports differ")
    if json.dumps(first.to_json_dict(), sort_keys=True) != json.dumps(
        second.to_json_dict(), sort_keys=True
    ):
        failures.append("serialized library reports differ")

    argv = [
        "density", "--blocks", "1", "--rows", "1", "--cols", "2",
        "--k", "2", "--trials", "200", "--seed", "7", "--no-timestamp",
    ]
    out1, out2 = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out1):
        rc1 = cli.main(list(argv))
    with contextlib.redirect_stdout(out2):
        rc2 = cli.main(list(argv))
    if rc1 != 0 or rc2 != 0:
        failures.append(f"CLI exit codes {rc1}, {rc2}")
    elif out1.getvalue() != out2.getvalue() or not out1.getvalue():
        failures.append("CLI reports are not byte-identical")
    return "library and CLI density reports byte-identical across reruns"


ALL_CRITERIA = (
    criterion_formula_grid,
    criterion_dual_witness,
    criterion_um_equals_gen,
    criterion_warfield,
    criterion_herman_vaserstein,
    criterion_negative_control,
    criterion_kernel_numerics,
    criterion_reproducibility,
)


def run_all() -> list:
    return [fn() for fn in ALL_CRITERIA]
