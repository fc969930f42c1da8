"""Reduction coefficients, Warfield and Bass reductions, padding and density."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from cstar_rank import (
    Algebra,
    DomainError,
    ModuleNotFullError,
    ModuleSpace,
    ModuleTuple,
    PerturbationParams,
    ReductionCoefficients,
    ReductionFailedError,
    ShapeMismatchError,
    adjointable_norm,
    bass_reduce,
    corner_space,
    density_experiment,
    dual_witness,
    gen_oracle,
    generation_margin,
    gram,
    hv_pad,
    hv_perturb,
    inner_right,
    is_unimodular,
    normalize_tuple,
    sr_formula,
    stable_rank,
    unimodularity_margin,
    warfield_b_to_a,
    warfield_forward,
)
from cstar_rank import algebra, hilbert_module
from test_hilbert_module import CORNER_CASES, corner_with_ranks, space_of_kind


def scalar_space():
    return ModuleSpace(Algebra((1,)), 1, 1)


def scalar(space, value):
    return space.element([np.array([[value]], dtype=complex)])


def random_tuple(space, rng, k):
    return ModuleTuple(tuple(space.random_element(rng) for _ in range(k)))


def random_unimodular(space, rng, k):
    for _ in range(100):
        t = random_tuple(space, rng, k)
        if is_unimodular(t):
            return t
    raise AssertionError("sampling failed")


def scaled_to_norm(t, norm):
    """``t`` scaled to the given norm: below ``sqrt(eps)`` its Gram sum lies
    below ``eps``, so ``hv_perturb``'s bump is nonzero and it pads and reduces."""
    return ModuleTuple(tuple(norm / t.norm() * x for x in t.entries))


def spy_on(monkeypatch, names):
    """Count the calls ``stable_rank`` makes to each of ``names``."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def spy(*args, _name=name, _original=getattr(stable_rank, name)):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(stable_rank, name, spy)
    return counts


# -- the ceiling formula ---------------------------------------------------------


def test_sr_formula_values():
    assert sr_formula(1, 1, 1) == 1
    assert sr_formula(2, 3, 5) == 2  # ceil(6 / 3)


def test_sr_formula_matches_square_case():
    # ceil((s + n - 1) / n) == ceil((s - 1) / n) + 1 for all small s, n.
    for s in range(1, 21):
        for n in range(1, 21):
            assert sr_formula(s, n, n) == math.ceil((s - 1) / n) + 1


def test_sr_formula_validates():
    with pytest.raises(ValueError):
        sr_formula(0, 1, 1)
    with pytest.raises(ValueError):
        sr_formula(1, 0, 1)


@pytest.mark.parametrize("args", [(2.5, 1, 1), (1, 2.0, 3), (1, 1, True), ("1", 1, 1)])
def test_sr_formula_rejects_non_integers(args):
    # sr_formula(2.5, 1, 1) once returned 3.0 and sr_formula(1, 2.0, 3) 2.0.
    with pytest.raises(TypeError):
        sr_formula(*args)


def test_sr_formula_takes_integers_as_int():
    value = sr_formula(np.int64(2), np.int32(3), np.uint8(5))
    assert value == sr_formula(2, 3, 5) == 2 and type(value) is int


def test_predicted_rank_matches_formula():
    for rows in range(1, 5):
        for cols in range(1, 5):
            space = ModuleSpace(Algebra((1, 2)), rows, cols)
            assert space.predicted_stable_rank() == sr_formula(1, rows, cols)


# -- reduction coefficients -------------------------------------------------------


def test_adjointable_norm_trivial():
    space = ModuleSpace(Algebra((1, 2)), 2, 2)
    left = space.left_algebra
    zero = ReductionCoefficients(space, [[left.zero()], [left.zero()]])
    assert adjointable_norm(zero) == 0.0
    ident = ReductionCoefficients(
        space,
        [[left.unit(), left.zero()], [left.zero(), left.unit()]],
    )
    assert abs(adjointable_norm(ident) - 1.0) < 1e-12


def _apply_per_entry(coeffs, entries):
    """Reference action ``sum_k a[j][k] * y_k``, one module action per coefficient."""
    out = []
    for row in coeffs.coeffs:
        acc = row[0] * entries[0]
        for a, y in zip(row[1:], entries[1:]):
            acc = acc + a * y
        out.append(acc)
    return out


def test_adjointable_norm_bounds_action():
    # Per case: the space, one with the same left algebra, one with another.
    base, size, p_ranks, q_ranks, _ = CORNER_CASES[1]
    corner_rng = np.random.default_rng(17)
    cases = [
        (ModuleSpace(Algebra((2, 1)), 2, 2), ModuleSpace(Algebra((2, 1)), 2, 3),
         ModuleSpace(Algebra((2, 1)), 1, 2)),
        (corner_with_ranks(base, size, p_ranks, q_ranks, corner_rng),
         corner_with_ranks(*CORNER_CASES[2][:4], corner_rng), ModuleSpace(Algebra(base), 1, 2)),
    ]
    rng = np.random.default_rng(0)
    # Inputs of the block-value checks come from their own generator, so rng draws as before.
    other_rng = np.random.default_rng(1)
    for space, same_left, foreign in cases:
        left = space.left_algebra
        for _ in range(100):
            coeffs, other = (ReductionCoefficients(
                space,
                [
                    [left.random_element(g) for _ in range(2)]
                    for _ in range(3)
                ],
            ) for g in (rng, other_rng))
            bound = adjointable_norm(coeffs)
            # The norm of the array is the container's norm: the same SVD.
            assert bound == coeffs.norm()
            # One read-only block matrix per left-algebra block, rebuilt bit for bit.
            again = ReductionCoefficients(space, coeffs.coeffs)
            assert all(np.array_equal(a, b) for a, b in zip(again.blocks, coeffs.blocks))
            assert not any(b.flags.writeable for b in coeffs.blocks)
            assembled = [
                np.block([[a.blocks[i] for a in row] for row in coeffs.coeffs])
                for i in range(left.num_blocks)
            ]
            assert bound == max(np.linalg.norm(b, 2) for b in assembled)
            for _ in range(5):
                entries = [space.random_element(rng) for _ in range(2)]
                out = ModuleTuple(tuple(coeffs.apply(entries)))
                in_norm = ModuleTuple(tuple(entries)).norm()
                assert out.norm() <= bound * in_norm + 1e-9
                reference = _apply_per_entry(coeffs, entries)
                assert (out - ModuleTuple(tuple(reference))).norm() <= 1e-12 * bound * in_norm
                # Arrays are block values: sums, negation and scalar multiples act linearly.
                scale = (bound + other.norm()) * in_norm
                linear = [
                    (coeffs + other, [a + b for a, b in zip(out, other.apply(entries))]),
                    (-coeffs, [-a for a in out]),
                    (2 * coeffs, [2 * a for a in out]),
                ]
                for combined, expected in linear:
                    assert not any(b.flags.writeable for b in combined.blocks)
                    gap = ModuleTuple(tuple(combined.apply(entries))) - ModuleTuple(tuple(expected))
                    assert gap.norm() <= 1e-12 * scale
        # A tuple of another space with the same left algebra maps into its own space.
        entries = [same_left.random_element(rng) for _ in range(2)]
        out = coeffs.apply(entries)
        assert all(x.space == same_left for x in out)
        reference = _apply_per_entry(coeffs, entries)
        in_norm = ModuleTuple(tuple(entries)).norm()
        assert (ModuleTuple(tuple(out)) - ModuleTuple(tuple(reference))).norm() <= (
            1e-12 * adjointable_norm(coeffs) * in_norm
        )
        with pytest.raises(ShapeMismatchError):
            coeffs.apply([foreign.random_element(rng) for _ in range(2)])
        # The operand rule: an array over another space or of another shape,
        # and anything that is not an array, are refused.
        one = left.unit()
        for mismatched in (ReductionCoefficients(same_left, [[one] * 2] * 3),
                           ReductionCoefficients(space, [[one] * 2] * 2),
                           ReductionCoefficients(space, [[one] * 3] * 3)):
            with pytest.raises(ShapeMismatchError, match="coefficient arrays differ in space or shape"):
                coeffs + mismatched
        for stranger in (1.0, left.unit(), space.random_element(other_rng)):
            with pytest.raises(TypeError, match="expected ReductionCoefficients"):
                coeffs - stranger


@pytest.mark.parametrize("kind", ["matrix", "corner"])
def test_coefficients_need_a_nonempty_rectangular_array(kind):
    space = space_of_kind(kind, np.random.default_rng(31))
    one = space.left_algebra.unit()
    for empty in ([], [[]]):
        with pytest.raises(ValueError, match="coefficient array must be nonempty"):
            ReductionCoefficients(space, empty)
    with pytest.raises(ShapeMismatchError, match="coefficient rows have unequal lengths"):
        ReductionCoefficients(space, [[one], [one, one]])


@pytest.mark.parametrize("kind", ["matrix", "corner"])
def test_apply_needs_one_entry_per_column(kind):
    rng = np.random.default_rng(37)
    space = space_of_kind(kind, rng)
    one = space.left_algebra.unit()
    coeffs = ReductionCoefficients(space, [[one, one]])
    with pytest.raises(ShapeMismatchError, match="expected 2 tuple entries, got 1"):
        coeffs.apply([space.random_element(rng)])


def test_coefficients_validate_parent_algebra():
    space = ModuleSpace(Algebra((2,)), 2, 2)
    wrong = Algebra((2,)).unit()  # not the left algebra M_2(M_2)
    with pytest.raises(ShapeMismatchError):
        ReductionCoefficients(space, [[wrong]])


def test_adjointable_norm_refuses_non_finite_coefficients():
    space = ModuleSpace(Algebra((1, 2)), 1, 1)
    left = space.left_algebra
    bad = left.element([np.array([[np.inf]]), np.eye(2)])
    coeffs = ReductionCoefficients(space, [[left.unit(), bad]])
    with pytest.raises(DomainError, match="not finite"):
        adjointable_norm(coeffs)


# -- forward reduction --------------------------------------------------------------


def test_warfield_forward_zero_coefficients():
    rng = np.random.default_rng(1)
    space = ModuleSpace(Algebra((1, 2)), 2, 2)
    t = random_tuple(space, rng, 3)
    zero = ReductionCoefficients(
        space, [[space.left_algebra.zero()], [space.left_algebra.zero()]]
    )
    out = warfield_forward(t, zero)
    assert all((a - b).norm() == 0.0 for a, b in zip(out, t.entries[:2]))


def test_warfield_forward_zero_last_entry():
    rng = np.random.default_rng(2)
    space = ModuleSpace(Algebra((2,)), 1, 1)
    head = [space.random_element(rng) for _ in range(2)]
    t = ModuleTuple((*head, space.zero()))
    coeffs = ReductionCoefficients(
        space,
        [[space.left_algebra.random_element(rng)] for _ in range(2)],
    )
    out = warfield_forward(t, coeffs)
    assert all((a - b).norm() == 0.0 for a, b in zip(out, head))


def test_warfield_forward_shape_mismatch():
    space = scalar_space()
    t = ModuleTuple((space.zero(), space.zero(), space.zero()))
    coeffs = ReductionCoefficients(space, [[space.left_algebra.unit()]])
    with pytest.raises(ShapeMismatchError):
        warfield_forward(t, coeffs)


# -- witness to coefficients ----------------------------------------------------------


def test_warfield_b_to_a_trivial_instance():
    space = scalar_space()
    one, zero = scalar(space, 1.0), scalar(space, 0.0)
    t = ModuleTuple((one, zero))
    y = ModuleTuple((one, zero))
    coeffs = warfield_b_to_a(t, y)
    assert coeffs.coeffs[0][0].norm() == 0.0
    reduced = warfield_forward(t, coeffs)
    assert is_unimodular(reduced)


def test_warfield_b_to_a_requires_unimodular_head():
    space = scalar_space()
    one, zero = scalar(space, 1.0), scalar(space, 0.0)
    t = ModuleTuple((zero, one))
    y = ModuleTuple((zero, one))  # pairing is 1 but the head is zero
    # The truncation's dual witness refuses it, and the message says so.
    with pytest.raises(DomainError) as err:
        warfield_b_to_a(t, y)
    assert str(err.value).startswith("truncated witness (y_1, ..., y_n) is not unimodular: ")


def test_warfield_b_to_a_checks_pairing_residual():
    space = scalar_space()
    one = scalar(space, 1.0)
    t = ModuleTuple((one, one))
    y = ModuleTuple((one, one))  # pairing sums to 2, not 1
    with pytest.raises(DomainError):
        warfield_b_to_a(t, y)


@pytest.mark.parametrize("kind", ["matrix", "corner"])
def test_reductions_refuse_tuples_too_short_to_reduce(kind):
    rng = np.random.default_rng(41)
    space = space_of_kind(kind, rng)
    t = random_tuple(space, rng, 2)
    single = ModuleTuple(t.entries[:1])
    with pytest.raises(ShapeMismatchError, match="^need a tuple of length at least 2$"):
        warfield_b_to_a(single, single)
    with pytest.raises(ShapeMismatchError, match="witness length 1 does not match tuple length 2"):
        warfield_b_to_a(t, single)
    with pytest.raises(ShapeMismatchError, match="need a tuple of length at least 2 to reduce"):
        bass_reduce(single, PerturbationParams(eps=0.1))


def test_warfield_b_to_a_random_instances():
    rng = np.random.default_rng(3)
    space = ModuleSpace(Algebra((1, 2)), 2, 2)
    for _ in range(30):
        head = random_unimodular(space, rng, 1)
        y = ModuleTuple(head.entries + (space.random_element(rng),))
        b_inv = space.right_inverse(gram(y), 1e-9)
        t = ModuleTuple(tuple(yk * b_inv for yk in y.entries))
        coeffs = warfield_b_to_a(t, y)
        # Built by the trusted wrap, and read-only like every block value.
        assert not any(b.flags.writeable for b in coeffs.blocks)
        reduced = warfield_forward(t, coeffs)
        assert is_unimodular(reduced)
        telescoped = coeffs.coeffs[0][0].adjoint() * y[0]
        assert (telescoped - y[1]).norm() <= 1e-7


def warfield(t, head, tail, z, tol):
    """Warfield's step on the stacked forms of the tuples given."""
    return stable_rank._warfield(t.space, t._stacked(), len(head), head._stacked(), tail._stacked(),
                                 z._stacked(), tol)


def test_warfield_b_to_a_checks_the_truncation_dual():
    # A dual passed forward by the reduction is certified only by its residual.
    space = scalar_space()
    one, zero = scalar(space, 1.0), scalar(space, 0.0)
    t = ModuleTuple((one, zero))
    z = ModuleTuple((scalar(space, 2.0),))  # pairs with the head to 2
    with pytest.raises(DomainError, match="truncation dual residual"):
        warfield(t, ModuleTuple((one,)), ModuleTuple((zero,)), z, 1e-9)


def trivial_warfield_instance():
    space = scalar_space()
    one, zero = scalar(space, 1.0), scalar(space, 0.0)
    return ModuleTuple((one, zero)), ModuleTuple((one, zero))


def test_warfield_b_to_a_checks_the_telescoping_identity(monkeypatch):
    # No residual is negative, so every telescoping check fails.
    monkeypatch.setattr(stable_rank, "TELESCOPE_TOL", -1.0)
    with pytest.raises(DomainError, match="telescoping residual"):
        warfield_b_to_a(*trivial_warfield_instance())


@pytest.mark.parametrize("tail, refused", [(60.0, True), (10.0, False)])
def test_the_telescoping_gate_sits_at_1e_7(tail, refused):
    # The dual z = 1 + 5e-9 of the head 1 passes its pairing gate at WITNESS_TOL
    # = 1e-8, and the telescoping residual is tail * 5e-9: 3e-7 for a tail of
    # 60, which the gate at 1e-7 refuses, and 5e-8 for a tail of 10, which it passes.
    space = scalar_space()
    one, zero = scalar(space, 1.0), scalar(space, 0.0)
    z = ModuleTuple((scalar(space, 1.0 + 5e-9),))
    args = (ModuleTuple((one, zero)), ModuleTuple((one,)), ModuleTuple((scalar(space, tail),)), z, 1e-9)
    if refused:
        with pytest.raises(DomainError, match=r"telescoping residual 3e-07 exceeds 1e-07"):
            warfield(*args)
    else:
        warfield(*args)


def test_warfield_b_to_a_checks_the_reduced_tuple(monkeypatch):
    # The last split is that of the tuple being collapsed: with both halves zero,
    # the reduced tuple is 0.
    def run():
        warfield_b_to_a(*trivial_warfield_instance())

    def zeros(halves):
        return tuple([np.zeros_like(b) for b in half] for half in halves)

    corrupt_last_call(monkeypatch, "_split", zeros, run)
    with pytest.raises(DomainError, match="reduced tuple failed"):
        run()


# -- Bass reduction -------------------------------------------------------------------


def test_bass_reduce_scalar_pair():
    space = scalar_space()
    t = ModuleTuple((scalar(space, 1.0), scalar(space, 1.0)))
    coeffs = bass_reduce(t, PerturbationParams(eps=0.1, seed=0))
    reduced = warfield_forward(t, coeffs)
    assert is_unimodular(reduced)


def test_bass_reduce_fails_below_stable_rank():
    # The counting bound rules out every 1-entry truncation, so nothing is reduced.
    space = ModuleSpace(Algebra((1,)), 1, 2)
    rng = np.random.default_rng(4)
    t = random_unimodular(space, rng, 2)
    with pytest.raises(ReductionFailedError, match="counting bound"):
        bass_reduce(t, PerturbationParams(eps=0.1, seed=1))


def test_bass_reduce_reduces_a_pair_with_a_zero_head():
    # (0, 1): the dual's head is 0, so random perturbations of it of size
    # eta <= 4e-3 had Gram margins far below tol 1e-4 and every retry failed.
    # Its polar completion is the shift eta = ||z|| itself, and no seed is read.
    space = scalar_space()
    t = ModuleTuple((scalar(space, 0.0), scalar(space, 1.0)))
    coeffs = [bass_reduce(t, PerturbationParams(eps=0.1, tol=1e-4, seed=seed)) for seed in (0, 1)]
    assert is_unimodular(warfield_forward(t, coeffs[0]), 1e-4)
    assert all(np.array_equal(a, b) for a, b in zip(coeffs[0].blocks, coeffs[1].blocks))


def test_bass_reduce_sound_on_both_routes():
    rng = np.random.default_rng(5)
    cases = [
        ((1,), 1, 1, 1),
        ((2,), 1, 1, 2),
        ((1, 2), 2, 2, 1),
        ((1,), 1, 2, 2),
        ((2,), 2, 3, 2),
    ]
    for base, rows, cols, n in cases:
        space = ModuleSpace(Algebra(base), rows, cols)
        for i in range(10):
            t = random_unimodular(space, rng, n + 1)
            coeffs = bass_reduce(t, PerturbationParams(eps=0.1, seed=i))
            reduced = warfield_forward(t, coeffs)
            assert is_unimodular(reduced)
            assert gen_oracle(reduced)


@pytest.mark.parametrize("pipeline, length, calls", [
    (hv_perturb, 2, {"_is_unimodular_at": 2, "_stacked_dual": 1, "_require_residual": 2}),
    (bass_reduce, 3, {"_is_unimodular_at": 1, "_stacked_dual": 1, "_require_residual": 2}),
])
def test_each_fact_is_decided_once(monkeypatch, pipeline, length, calls):
    # hv_perturb: the padded tuple by its stacked dual witness, the reduced and
    # the moved tuple by is_unimodular's rule.  bass_reduce: the input by its
    # stacked dual witness, the reduced tuple by is_unimodular's rule.  The
    # polar completion of the dual's head comes with its own dual, so nothing
    # else is decided, and the two residuals are that dual's pairing and the
    # telescoping: Warfield's step takes the witness as it is, with no pairing
    # to invert.
    # At norm 0.1 the Gram sum lies below eps, so hv_perturb pads and reduces;
    # bass_reduce makes the same calls at every scale.
    space = ModuleSpace(Algebra((1,)), 1, 2)
    t = scaled_to_norm(random_unimodular(space, np.random.default_rng(12), length), 0.1)
    counts = spy_on(monkeypatch, calls)
    pipeline(t, PerturbationParams(eps=0.1, seed=3))
    assert counts == calls


def test_bass_reduce_requires_unimodular_input():
    space = ModuleSpace(Algebra((1,)), 1, 3)
    rng = np.random.default_rng(6)
    t = random_tuple(space, rng, 2)  # 2 < 3 columns, never unimodular
    with pytest.raises(DomainError):
        bass_reduce(t, PerturbationParams(eps=0.1, seed=0))


# -- padding ---------------------------------------------------------------------------


def test_hv_pad_zero_tuple():
    space = ModuleSpace(Algebra((1, 2)), 1, 1)
    u = normalize_tuple(
        ModuleTuple(tuple(space.standard_unimodular_tuple()))
    )
    t = ModuleTuple((space.zero(),))
    padded = hv_pad(t, u, 1.0)
    assert is_unimodular(padded)
    # With b0 = 0 the bump is the unit, so the padding is u itself.
    for uk, yk in zip(u.entries, padded.entries[1:]):
        assert (uk - yk).norm() < 1e-12


def test_hv_pad_vanishes_on_large_tuples():
    space = scalar_space()
    t = ModuleTuple((scalar(space, 3.0),))  # b0 = 9 >= eps = 1
    u = ModuleTuple((scalar(space, 1.0),))
    padded = hv_pad(t, u, 1.0)
    assert is_unimodular(padded)
    assert padded[1].norm() == 0.0


def test_hv_pad_rejects_unnormalized_padding():
    space = scalar_space()
    t = ModuleTuple((scalar(space, 0.0),))
    u = ModuleTuple((scalar(space, 2.0),))
    with pytest.raises(DomainError, match=r"^padding tuple is not normalized: \|\|<u,u> - 1\|\| = 3 exceeds 1e-08$"):
        hv_pad(t, u, 1.0)


def test_hv_pad_sweep():
    rng = np.random.default_rng(7)
    for base, rows, cols, n in [((1,), 1, 1, 1), ((2,), 1, 2, 2), ((1, 2), 2, 2, 1)]:
        space = ModuleSpace(Algebra(base), rows, cols)
        r = space.predicted_stable_rank()
        for eps in (0.1, 1.0, 10.0):
            for _ in range(20):
                t = random_tuple(space, rng, n)
                u = normalize_tuple(random_unimodular(space, rng, r))
                assert is_unimodular(hv_pad(t, u, eps))


def test_hv_pad_checks_the_padded_tuple(monkeypatch):
    space = scalar_space()
    t = ModuleTuple((space.zero(),))
    u = ModuleTuple((scalar(space, 1.0),))

    def refuse(space, stacked, tol):
        raise DomainError("refused")

    # The padded tuple is decided by the dual_witness rule, as hv_perturb's is.
    monkeypatch.setattr(stable_rank, "_stacked_dual", refuse)
    with pytest.raises(DomainError, match="padded tuple failed"):
        hv_pad(t, u, 1.0)


# -- the perturbation pipeline -------------------------------------------------------------


def test_hv_perturb_zero_scalar():
    space = scalar_space()
    t = ModuleTuple((space.zero(),))
    moved = hv_perturb(t, PerturbationParams(eps=0.01, seed=1))
    assert is_unimodular(moved)
    assert moved.norm() < math.sqrt(0.01) + 0.01


def test_hv_perturb_postconditions_random():
    rng = np.random.default_rng(8)
    cases = [((1,), 1, 1, 1), ((2,), 1, 2, 2), ((1, 2), 2, 2, 1), ((2, 3), 2, 3, 2)]
    for base, rows, cols, n in cases:
        space = ModuleSpace(Algebra(base), rows, cols)
        for eps in (0.01, 0.1, 1.0):
            bound = math.sqrt(eps) + eps
            for i in range(10):
                t = random_tuple(space, rng, n)
                moved = hv_perturb(t, PerturbationParams(eps=eps, seed=i))
                assert is_unimodular(moved)
                assert (t - moved).norm() < bound


def test_hv_perturb_already_unimodular_stays_close():
    rng = np.random.default_rng(9)
    space = ModuleSpace(Algebra((2,)), 2, 2)
    t = random_unimodular(space, rng, 1)
    moved = hv_perturb(t, PerturbationParams(eps=0.25, seed=0))
    assert is_unimodular(moved)
    assert (t - moved).norm() < math.sqrt(0.25) + 0.25


def hermitized(b):
    return (b + b.conj().T) / 2.0


def reference_hv_perturb(t, params):
    """``hv_perturb``'s collapse route in plain numpy, in its order of operations on
    stacked forms, with the space's hooks only to compress and embed: one ``eigh`` of
    the Gram sum gives the bump and the damping's inverse, the padding is the bump
    over zero rows, and ``eta`` is the padded Gram sum's smallest eigenvalue to the
    power -1/2.  A Gram sum is one product ``X* X`` of the stacked form per block, as ``pairing`` forms it."""
    space, eps, tol = t.space, params.eps, params.tol
    n, r = len(t), space.predicted_stable_rank()

    def gram_of(stacked):
        return space._compress([b.conj().T @ b for b in stacked])

    def split(stacked, k):
        return ([b[:k * rows] for b, (rows, _) in zip(stacked, space.block_shapes)],
                [b[k * rows:] for b, (rows, _) in zip(stacked, space.block_shapes)])

    def expanded(blocks):  # blocks of the compressed right algebra, back in the right algebra
        return space._expand(blocks)

    x = [np.vstack(column) for column in zip(*(e.blocks for e in t))]
    pairs = [np.linalg.eigh(hermitized(b)) for b in gram_of(x)]
    assert min(w[0] for w, _ in pairs) < eps  # a nonzero bump: the collapse route

    def calculus(f):
        return expanded([hermitized((v * f(w)) @ v.conj().T) for w, v in pairs])

    def bump(w):
        return np.clip(eps - w, 0.0, eps) / eps

    compressed_bump = iter(space._compress(calculus(bump)))
    padding = space._stacked_from_cores(r, [np.eye(r * rs, s, dtype=complex) @ next(compressed_bump) if s
                                            else np.eye(r * rs, 0) for rs, s in space.compressed_shapes])
    padded = [np.concatenate((xb, pb)) for xb, pb in zip(x, padding)]
    g = gram_of(padded)
    moduli = [np.abs(np.linalg.eigvalsh(b)) for b in g]
    smallest = min(m.min() for m in moduli)
    assert smallest / max(1.0, max(m.max() for m in moduli)) > tol
    c = expanded([np.linalg.inv(b) for b in g])
    dual = [pb @ cb.conj().T for pb, cb in zip(padded, c)]
    eta = smallest ** -0.5
    z_head, z_tail = split(dual, n)
    factors = [np.linalg.svd(b, full_matrices=False) for b in space._stacked_cores(n, z_head)]
    w_head = space._stacked_from_cores(n, [(u / (sv + eta)) @ vh for u, sv, vh in factors])
    a = [wb @ yb.conj().T for wb, yb in zip(w_head, z_tail)]
    kept, collapsed = split(padded, n)
    reduced = [hb + ab @ yb for hb, ab, yb in zip(kept, a, collapsed)]
    k = math.floor(max(np.linalg.svd(ab, compute_uv=False)[0] for ab in a) / eps) + 1
    damp_inv = calculus(lambda w: 1.0 / (1.0 + k * bump(w)))
    return [rb @ db for rb, db in zip(reduced, damp_inv)]


def public_hv_perturb(t, params):
    """``hv_perturb`` from its public pieces: pad with the standard tuple, take the
    padded tuple's dual witness, collapse the padding by the polar completion of its
    head with ``eta = ||z||``, and damp with ``right_inverse(1 + k b)``."""
    space, eps, n = t.space, params.eps, len(t)
    u = space.standard_unimodular_tuple()
    padded = hv_pad(t, u, eps, params.tol)
    z = dual_witness(padded, params.tol)
    head, tail = ModuleTuple(z.entries[:n]), ModuleTuple(z.entries[n:])
    factors = [np.linalg.svd(b, full_matrices=False) for b in space._stacked_cores(n, head._stacked())]
    w = space._stacked_from_cores(n, [(u / (sv + z.norm())) @ vh for u, sv, vh in factors])
    coeffs = ReductionCoefficients._wrap(space, [wb @ yb.conj().T for wb, yb in zip(w, tail._stacked())])
    k = math.floor(adjointable_norm(coeffs) / eps) + 1
    bump = space.right_algebra.element(
        space._right_calculus(gram(t).blocks)(lambda w: np.clip(eps - w, 0.0, eps) / eps))
    damp_inv = space.right_inverse(space.right_algebra_unit() + k * bump, params.tol)
    return ModuleTuple(tuple(v * damp_inv for v in warfield_forward(padded, coeffs).entries))


@pytest.mark.parametrize("eps", [0.01, 0.1, 1.0])
def test_hv_perturb_matches_pad_collapse_damp(eps):
    rng = np.random.default_rng(13)
    spaces = [
        ModuleSpace(Algebra((1,)), 1, 2),
        ModuleSpace(Algebra((1, 2)), 2, 2),
        ModuleSpace(Algebra((2, 3)), 2, 3),
        corner_with_ranks(*CORNER_CASES[1][:4], rng),
    ]
    for space in spaces:
        # At norm at most sqrt(eps) the Gram sum lies at or below eps, so every
        # bump is nonzero and the reductions move the tuples; at the top of the
        # range the largest eigenvalue's bump is about 0.
        for seed, scale in [(0, 0.05), (1, 0.05), (2, 0.3), (3, 1.0)]:
            t = random_tuple(space, rng, space.predicted_stable_rank())
            t = scaled_to_norm(t, scale * math.sqrt(eps))
            params = PerturbationParams(eps=eps, seed=seed)
            moved = hv_perturb(t, params)
            expected = reference_hv_perturb(t, params)
            assert all(np.array_equal(a, b) for a, b in zip(moved._stacked(), expected))
            # The public pieces take eta from an SVD and the damping from an inverse
            # and project each product into the space: the same tuple to rounding.
            public = public_hv_perturb(t, params)._stacked()
            gap = max(np.abs(a - b).max() for a, b in zip(moved._stacked(), public))
            assert gap <= 1e-12 * max(np.abs(b).max() for b in public)


def test_hv_perturb_fails_below_stable_rank():
    space = ModuleSpace(Algebra((1,)), 1, 2)
    rng = np.random.default_rng(10)
    t = ModuleTuple((space.random_element(rng),))
    with pytest.raises(ReductionFailedError):
        hv_perturb(t, PerturbationParams(eps=0.1, seed=0))


def test_hv_perturb_below_rounding_still_fails_from_the_counting_bound():
    # At tol 1e-25 the reductions of this 1-tuple once pass their margin
    # tests on rounding noise and then invert a singular matrix.
    space = ModuleSpace(Algebra((1,)), 1, 2)
    t = ModuleTuple((space.random_element(np.random.default_rng(5)),))
    with pytest.raises(ReductionFailedError, match="stable rank 2"):
        hv_perturb(t, PerturbationParams(eps=0.1, tol=1e-25, seed=0))


def test_hv_perturb_rejects_non_full_corner():
    alg = Algebra((1,))
    big = alg.matrix_algebra(2)
    q = big.element([np.diag([1.0, 0.0])])
    dead = corner_space(alg, 2, big.zero(), q)
    t = ModuleTuple((dead.zero(),))
    with pytest.raises(ModuleNotFullError):
        hv_perturb(t, PerturbationParams(eps=0.1, seed=0))


def test_hv_perturb_works_on_corners():
    alg = Algebra((1,))
    big = alg.matrix_algebra(4)
    p = big.element([np.diag([1.0, 1, 0, 0])])
    q = big.element([np.diag([1.0, 1, 1, 0])])
    corner = corner_space(alg, 4, p, q)
    rng = np.random.default_rng(11)
    t = ModuleTuple(tuple(corner.random_element(rng) for _ in range(2)))
    moved = hv_perturb(t, PerturbationParams(eps=0.1, seed=3))
    assert is_unimodular(moved)
    assert (t - moved).norm() < math.sqrt(0.1) + 0.1


def test_hv_perturb_passes_the_truncation_dual_gate_at_small_eps():
    # A random perturbation of the dual's head once had a dual of its own that
    # paired to 1 only within 1.62e-08, and the gate at 1e-08 refused this
    # valid input; the polar completion's dual pairs to 1 at rounding level.
    space = ModuleSpace(Algebra((2,)), 1, 3)
    rng = np.random.default_rng(1)
    t = ModuleTuple(tuple(1e-2 * space.random_element(rng) for _ in range(3)))
    params = PerturbationParams(eps=1e-3, seed=0)
    moved = hv_perturb(t, params)
    assert generation_margin(moved) > params.tol
    assert (t - moved).norm() < math.sqrt(params.eps) + params.eps


def corrupt_last_call(monkeypatch, name, corrupt, run):
    """Patch ``stable_rank.<name>`` so that, of the calls ``run()`` makes, the
    last returns ``corrupt(result)``; ``run`` is called once to count them."""
    original = getattr(stable_rank, name)
    calls, last = [], None

    def patched(*args, **kwargs):
        calls.append(args)
        result = original(*args, **kwargs)
        return corrupt(result) if len(calls) == last else result

    monkeypatch.setattr(stable_rank, name, patched)
    run()
    last, calls[:] = len(calls), []


def zero_scalar_perturbation():
    t = ModuleTuple((scalar_space().zero(),))
    return lambda: hv_perturb(t, PerturbationParams(eps=0.01, seed=1))


def unit_scalar_perturbation():
    # b0 = 1 >= eps: the bump is 0 and the input comes back as it is.
    t = ModuleTuple((scalar(scalar_space(), 1.0),))
    return lambda: hv_perturb(t, PerturbationParams(eps=0.01, seed=1))


def test_hv_perturb_checks_the_telescoping_of_its_whole_padding(monkeypatch):
    # Two padding entries, collapsed in one step; no residual is negative, so
    # the telescoping gate over both trailing entries fails.
    space = ModuleSpace(Algebra((1,)), 1, 2)
    assert len(space.standard_unimodular_tuple()) == 2
    t = scaled_to_norm(random_tuple(space, np.random.default_rng(12), 2), 0.05)
    monkeypatch.setattr(stable_rank, "TELESCOPE_TOL", -1.0)
    with pytest.raises(DomainError, match="telescoping residual"):
        hv_perturb(t, PerturbationParams(eps=0.01, seed=1))


def test_hv_perturb_checks_the_unimodularity_postcondition(monkeypatch):
    # The last unimodularity decision is the one on the damped tuple.
    run = zero_scalar_perturbation()
    corrupt_last_call(monkeypatch, "_is_unimodular_at", lambda verdict: False, run)
    with pytest.raises(DomainError, match="perturbed tuple failed"):
        run()


def test_hv_perturb_checks_the_unimodularity_postcondition_on_a_zero_bump(monkeypatch):
    # With a zero bump the one unimodularity check is the one on the input, the
    # decision rule applied to the margin of the spectrum that chose the route.
    run = unit_scalar_perturbation()
    corrupt_last_call(monkeypatch, "_is_unimodular_at", lambda verdict: False, run)
    with pytest.raises(DomainError, match="perturbed tuple failed"):
        run()


def test_hv_perturb_checks_the_distance_bound(monkeypatch):
    # A negative sqrt puts the bound sqrt(eps) + eps below every distance.
    monkeypatch.setattr(
        stable_rank, "math", SimpleNamespace(floor=math.floor, sqrt=lambda x: -1.0)
    )
    with pytest.raises(DomainError, match="not below"):
        zero_scalar_perturbation()()


def test_hv_perturb_checks_the_distance_bound_on_a_zero_bump(monkeypatch):
    # The input itself moves 0, which is not below a negative bound either.
    monkeypatch.setattr(
        stable_rank, "math", SimpleNamespace(floor=math.floor, sqrt=lambda x: -1.0)
    )
    with pytest.raises(DomainError, match="moved 0, not below"):
        unit_scalar_perturbation()()


def test_hv_perturb_refuses_a_distance_at_its_bound(monkeypatch):
    # Undamped (k = 0, so d = 1), the zero scalar at eps = 0.25 moves to the unit, distance 1:
    # above sqrt(eps) + eps = 0.75 and below twice that, so the gate sits at its number.
    monkeypatch.setattr(stable_rank, "math", SimpleNamespace(floor=lambda x: -1, sqrt=math.sqrt))
    with pytest.raises(DomainError) as refused:
        hv_perturb(ModuleTuple((scalar_space().zero(),)), PerturbationParams(eps=0.25))
    assert str(refused.value) == "perturbed tuple moved 1, not below sqrt(eps)+eps = 0.75"


def repeated_at_1e4():
    """``(x, x)`` on ``M_{2x3}(C + M_2)``, scaled by 1e4: its padded Gram sum is about 1 on the
    kernel of ``b0`` and about 1e9 on its range, so its margin falls below the default tol."""
    x = 1e4 * ModuleSpace(Algebra((1, 2)), 2, 3).random_element(np.random.default_rng(0))
    return ModuleTuple((x, x))


@pytest.mark.parametrize("run", [
    lambda t: hv_perturb(t, PerturbationParams(eps=0.5)),
    lambda t: hv_pad(t, t.space.standard_unimodular_tuple(), 0.01),
])
def test_the_padded_gate_names_the_relative_margin(run):
    # A repeated tuple at scale 1e4 is far inside the working tolerance; its padded tuple
    # generates, but the relative margin of the padded Gram sum is about 1/||b0||.
    with pytest.raises(DomainError) as refused:
        run(repeated_at_1e4())
    assert str(refused.value) == (
        "padded tuple failed the unimodularity postcondition: the margin is relative, and padding lifts "
        "eigenvalues below eps only to 1 + eps at most, so Gram sums above about (1 + eps)/tol fail"
    )


@pytest.mark.parametrize("kind", ["matrix", "corner"])
def test_a_zero_bump_returns_the_input_itself(monkeypatch, kind):
    # Where b0 >= eps the bump is exactly 0: the padding, the coefficients and
    # k - 1 vanish and d = 1, so the closed form is t, and only the output
    # postcondition decides anything, on the margin the route was taken from.
    rng = np.random.default_rng(14)
    space = space_of_kind(kind, rng)
    t = random_unimodular(space, rng, space.predicted_stable_rank())
    smallest = min(np.linalg.eigvalsh(b)[0] for b in space._compress(gram(t).blocks))
    counts = spy_on(monkeypatch, ["_stacked_dual", "_collapse", "_is_unimodular_at"])
    assert hv_perturb(t, PerturbationParams(eps=smallest / 2)) is t
    assert counts == {"_stacked_dual": 0, "_collapse": 0, "_is_unimodular_at": 1}


def test_the_bump_is_clipped_to_one_on_a_negative_eigenvalue():
    # b = clip(eps - w, 0, eps)/eps: a rank-deficient Gram sum's rounding can give a
    # negative eigenvalue w, where 1 - w/eps exceeds 1; the upper clip holds it at 1.
    assert stable_rank._bump(np.array([-0.125, 0.0, 0.125, 0.5]), 0.25).tolist() == [1.0, 1.0, 0.5, 0.0]
    # At a tiny eps the unclipped excess is large: -eps alone would give 2.
    eps = 2.0**-990
    assert stable_rank._bump(np.array([-eps, 0.0, eps / 2, 2 * eps]), eps).tolist() == [1.0, 1.0, 0.5, 0.0]


def test_the_route_boundary_is_the_smallest_eigenvalue_at_eps():
    # Half the standard tuple has Gram sum exactly 0.25 * 1: at eps = 0.25 every
    # eigenvalue clips to a zero bump, and one ulp above it the bump is nonzero.
    space = ModuleSpace(Algebra((1, 2)), 1, 2)
    t = ModuleTuple(tuple(0.5 * x for x in space.standard_unimodular_tuple().entries))
    assert all(np.array_equal(b, 0.25 * np.eye(len(b))) for b in gram(t).blocks)
    assert hv_perturb(t, PerturbationParams(eps=0.25)) is t
    eps = np.nextafter(0.25, 1)
    moved = hv_perturb(t, PerturbationParams(eps=eps))
    assert moved is not t
    assert is_unimodular(moved)
    assert (t - moved).norm() < math.sqrt(eps) + eps


def count_lapack_and_gram(monkeypatch, log=None):
    """Count, by routine, what the LAPACK boundary runs in ``algebra`` and in
    ``hilbert_module``, which imports it; ``scans``, its calls, each of which scans
    its blocks for non-finite entries once; ``gram_sums``, the stacked pairings;
    ``gram``; and ``wraps``, the elements, tuple entries and coefficient arrays
    built by ``_Blocks._wrap``.  ``log``, if given, gets ``(routine, number of
    blocks)`` of each call."""
    counts = {}

    def count(name):
        counts[name] = counts.get(name, 0) + 1

    for module in (algebra, hilbert_module):
        def lapack(routine, blocks, _original=module._lapack, **options):
            count("scans")
            count(routine)
            if log is not None:
                log.append((routine, len(blocks)))
            return _original(routine, blocks, **options)

        monkeypatch.setattr(module, "_lapack", lapack)

    def gram_sum(self, *args, _original=hilbert_module._SpaceOps._stacked_pairing):
        count("gram_sums")
        return _original(self, *args)

    def spy(t, _original=hilbert_module.gram):
        count("gram")
        return _original(t)

    def wrap(cls, parent, blocks, _original=algebra._Blocks._wrap.__func__):
        count("wraps")
        return _original(cls, parent, blocks)

    monkeypatch.setattr(hilbert_module._SpaceOps, "_stacked_pairing", gram_sum)
    monkeypatch.setattr(hilbert_module, "gram", spy)
    monkeypatch.setattr(algebra._Blocks, "_wrap", classmethod(wrap))
    return counts


@pytest.mark.parametrize("kind", ["matrix", "corner"])
def test_each_route_makes_exactly_its_lapack_calls(monkeypatch, kind):
    # The zero route forms one Gram sum, on the one stacked form of t, and takes one
    # eigvalsh, whose margin is the verdict's, bit for bit; the collapse route adds the
    # bump's eigh, which also gives the damping's inverse, the padded dual, whose
    # eigvalsh also gives eta, the polar completion, the coefficients' norm and the
    # two decisions, each on a stacked form, so gram never runs; each LAPACK call
    # scans its blocks once; a tuple below the counting bound is refused before any of them.
    # bass_reduce: the input's dual, the polar completion and the reduced tuple's decision.
    # The bump and the damping stay blocks, and the witness gate subtracts the unit without
    # building it, so the collapse route wraps only its n output entries and its
    # coefficients on either kind of space; the zero route wraps nothing.
    rng = np.random.default_rng(15)
    space = space_of_kind(kind, rng)
    n = space.predicted_stable_rank()
    t = random_unimodular(space, rng, n)
    smallest = min(np.linalg.eigvalsh(b)[0] for b in space._compress(gram(t).blocks))
    small = scaled_to_norm(random_tuple(space, rng, n), 0.05)
    short = random_tuple(space, rng, n - 1)
    longer = random_unimodular(space, rng, n + 1)
    expected_margin = unimodularity_margin(t)
    decided = []
    decide = stable_rank._is_unimodular_at

    def recording(space, stacked, tol, margin=None):
        decided.append(margin)
        return decide(space, stacked, tol, margin)

    monkeypatch.setattr(stable_rank, "_is_unimodular_at", recording)
    counts = count_lapack_and_gram(monkeypatch)

    assert hv_perturb(t, PerturbationParams(eps=smallest / 2)) is t
    assert counts == {"gram_sums": 1, "eigvalsh": 1, "scans": 1}
    assert decided == [expected_margin]

    counts.clear()
    assert hv_perturb(small, PerturbationParams(eps=0.1)) is not small
    assert counts == {"gram_sums": 5, "eigh": 1, "eigvalsh": 4, "inv": 1, "svd": 2, "scans": 8, "wraps": n + 1}

    counts.clear()
    with pytest.raises(ReductionFailedError):
        hv_perturb(short, PerturbationParams(eps=0.1))
    assert counts == {}

    bass_reduce(longer, PerturbationParams(eps=0.1))
    assert counts == {"gram_sums": 3, "eigvalsh": 2, "inv": 1, "svd": 1, "scans": 4, "wraps": 1}


@pytest.mark.parametrize("kind", ["matrix", "corner"])
def test_each_decision_makes_exactly_its_lapack_calls(monkeypatch, kind):
    # Each LAPACK call scans its blocks once: the dual inverts the Gram sum once its
    # eigvalsh margin passes, an inverse once its SVD margin passes, and hv_pad decides
    # its padded tuple by the dual rule, on the Gram sum of the joined stacked form.
    # Wraps: the witness's n entries; hv_pad's n + r output entries, but no bump and no
    # unit for its normalization gate; an inverse's result, and right_inverse's compressed
    # operand and expanded result.
    rng = np.random.default_rng(16)
    space = space_of_kind(kind, rng)
    t = random_unimodular(space, rng, space.predicted_stable_rank())
    u = space.standard_unimodular_tuple()
    b = space.right_algebra_unit() + gram(t)
    n, r = len(t), len(u)
    unit = 1 if kind == "matrix" else 0
    counts = count_lapack_and_gram(monkeypatch)
    calls = [
        (lambda: unimodularity_margin(t), {"gram_sums": 1, "eigvalsh": 1, "scans": 1}),
        (lambda: generation_margin(t), {"svd": 1, "scans": 1}),
        (lambda: dual_witness(t), {"gram_sums": 1, "eigvalsh": 1, "inv": 1, "scans": 2, "wraps": n}),
        (lambda: hv_pad(t, u, 0.5),
         {"gram_sums": 3, "eigh": 1, "eigvalsh": 1, "inv": 1, "scans": 3, "wraps": n + r}),
        (lambda: space.right_inverse(b), {"svd": 1, "inv": 1, "scans": 2, "wraps": 3}),
        (lambda: space.right_algebra_unit().inverse(), {"svd": 1, "inv": 1, "scans": 2, "wraps": 1 + unit}),
    ]
    for call, expected in calls:
        counts.clear()
        call()
        assert counts == expected


@pytest.mark.parametrize("kind", ["matrix", "corner"])
def test_an_overflowing_gram_sum_never_reaches_lapack(capfd, kind):
    # Finite entries near 1e155 give a Gram sum with non-finite entries.  Each decision
    # scans the blocks it hands LAPACK once, and that scan refuses them: LAPACK would
    # print its complaints to fd 1.  hv_perturb reads its route from that spectrum, so
    # the eps of either route, and hv_pad's bump, are refused at the same scan.
    rng = np.random.default_rng(17)
    space = space_of_kind(kind, rng)
    rest = [space.random_element(rng) for _ in range(space.predicted_stable_rank() - 1)]
    t = ModuleTuple((1e155 * space.random_element(rng), *rest))
    u = space.standard_unimodular_tuple()
    calls = [
        lambda: dual_witness(t),
        lambda: hv_perturb(t, PerturbationParams(eps=1e-300)),
        lambda: hv_perturb(t, PerturbationParams(eps=1e300)),
        lambda: hv_pad(t, u, 0.5),
    ]
    for call in calls:
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError) as refused:
            call()
        assert str(refused.value) == algebra._NOT_FINITE
    assert capfd.readouterr().out == ""


# -- density experiments ----------------------------------------------------------------------


#: A space per kind and a length at its stable rank: ``M_{1x2}(C + M_2)``, two live blocks,
#: and a corner of ``M_1(C + M_2)`` with compressed blocks 1x0 (dead) and 1x2.
DENSITY_CELLS = {
    "matrix": lambda: (ModuleSpace(Algebra((1, 2)), 1, 2), 2, 2),
    "corner": lambda: (corner_with_ranks((1, 2), 1, (1, 1), (0, 2), np.random.default_rng(3)), 2, 1),
}


@pytest.mark.parametrize("kind", sorted(DENSITY_CELLS))
def test_each_density_cell_makes_exactly_its_lapack_calls(monkeypatch, kind):
    # A clear cell is decided by one stacked cholesky over its live blocks, on the one pairing of
    # its trial stacks; one near-singular trial fails it, and the cell takes every margin from
    # eigvalsh, on the pairing formed again, since the bracket shifted the first in place.  A
    # matrix cell below the counting bound, at the default tol far above its rounding bound,
    # draws nothing and calls no LAPACK; a corner has no rounding bound, so its cell goes to the
    # pairing and eigvalsh at once.
    space, k, live = DENSITY_CELLS[kind]()
    trials, log = 20, []
    counts = count_lapack_and_gram(monkeypatch, log)
    assert density_experiment(space, k, trials, seed=5).unimodular_fraction == 1.0
    assert counts == {"cholesky": 1, "gram_sums": 1, "scans": 1} and log == [("cholesky", live)]

    # Trial 0 repeats its first entry: a k-tuple of rank below the counting bound.
    draw = stable_rank.trial_draws

    def repeating(seed, n, size):
        draws = draw(seed, n, size)
        draws[0, size // k:] = np.tile(draws[0, :size // k], k - 1)
        return draws

    monkeypatch.setattr(stable_rank, "trial_draws", repeating)
    counts.clear(), log.clear()
    assert density_experiment(space, k, trials, seed=5).unimodular_fraction == (trials - 1) / trials
    assert counts == {"cholesky": 1, "gram_sums": 2, "eigvalsh": 1, "scans": 2}
    assert log == [("cholesky", live), ("eigvalsh", live)]

    drawn = []
    monkeypatch.setattr(stable_rank, "trial_draws", lambda *args: drawn.append(args) or draw(*args))
    counts.clear(), log.clear()
    assert density_experiment(space, k - 1, trials, seed=5).exact_obstruction
    if kind == "matrix":
        assert counts == {} and log == [] and drawn == []
    else:
        assert counts == {"gram_sums": 1, "eigvalsh": 1, "scans": 1} and log == [("eigvalsh", live)] and len(drawn) == 1


def test_an_obstructed_matrix_cell_is_decided_by_its_rounding_bound(monkeypatch):
    # M_{1x2}(C + M_2) at k = 1 has blocks 1x2 and 2x4, both below the counting bound, so
    # B(1) = max 64 s (k r + s) u = max(384 u, 1536 u).  At or above B no margin can pass:
    # the cell draws nothing and calls no LAPACK.  Just below B it draws, and one pairing and
    # one eigvalsh over both blocks find every margin below tol, as above it.
    space = ModuleSpace(Algebra((1, 2)), 1, 2)
    assert space._rounding_bound(1) == 1536 * 2.0 ** -53 == 1.7053025658242404e-13
    assert space._rounding_bound(2) == math.inf
    draw, drawn, log = stable_rank.trial_draws, [], []
    monkeypatch.setattr(stable_rank, "trial_draws", lambda *args: drawn.append(args) or draw(*args))
    counts = count_lapack_and_gram(monkeypatch, log)
    for tol in (1.71e-13, 1.7053025658242404e-13):
        report = density_experiment(space, 1, 20, seed=5, tol=tol)
        assert report.unimodular_fraction == 0.0 and report.exact_obstruction
    assert counts == {} and drawn == []
    report = density_experiment(space, 1, 20, seed=5, tol=1.70e-13)
    assert report.unimodular_fraction == 0.0 and report.exact_obstruction
    assert counts == {"gram_sums": 1, "eigvalsh": 1, "scans": 1} and log == [("eigvalsh", 2)] and len(drawn) == 1


def test_the_bracket_slack_keeps_a_rounded_margin_out_of_the_count():
    # G = Q diag(1e14, 1e-3) Q*, Q a fixed random unitary, has margin 1e-17 = tol, far below
    # eigvalsh's rounding of about u ||G|| = 1e-2: eigvalsh rounds lambda_min to 0 and the
    # trial fails.  G - tol (1 + T) 1 still factors, so the bracket counts the trial unless
    # its shift carries the slack 64 s u T, about 1.4 here, which sends the cell to eigvalsh.
    space, tol = ModuleSpace(Algebra((1,)), 2, 2), 1e-17
    rng = np.random.default_rng(40)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    x = np.sqrt([1e14, 1e-3])[:, None] * q.conj().T
    draws = np.sqrt(2.0) * np.concatenate([x.real.ravel(), x.imag.ravel()])[None]
    (g,) = space._trial_grams(draws, 1)
    assert not space.random_gram_margins(draws, 1)[0] > tol
    np.linalg.cholesky(g - tol * (1 + np.trace(g[0]).real) * np.eye(2))
    assert space._unimodular_count(draws, 1, tol) == 0


def test_a_cell_clearing_tol_by_100_u_is_counted_by_the_bracket_alone(monkeypatch):
    # 2-tuples of M_{8x1}(C): one scalar block (s = 1) whose Gram sum is one product of n = k r = 16
    # terms, here all equal, so T = G = 16e20 and every margin is exactly 1.  tol = 1 - 100 u clears
    # it by 100 u T in the bracket's units, more than the 64 s u T of the factorization and eigvalsh.
    # The bracket factors the margins' own Gram sums, so its slack has no term for a second way of
    # forming them (4 (n + 2) u T = 72 u T would send the cell to eigvalsh), and it counts the cell itself.
    space, k, tol = ModuleSpace(Algebra((1,)), 8, 1), 2, 1 - 100 * 2.0 ** -53
    draws = np.full((3, k * stable_rank.draw_size(space.block_shapes)), 1e10)
    assert (space.random_gram_margins(draws, k) == 1.0).all()
    counts = count_lapack_and_gram(monkeypatch)
    assert space._unimodular_count(draws, k, tol) == 3
    assert counts == {"cholesky": 1, "gram_sums": 1, "scans": 1}


def test_a_refusal_below_the_stable_rank_builds_no_standard_tuple(monkeypatch):
    # The refusal's message reads the stable rank from predicted_stable_rank; a space that is
    # not full has none, and raises ModuleNotFullError with the standard tuple's message.
    padded = []
    original = hilbert_module._SpaceOps._standard_padding
    monkeypatch.setattr(hilbert_module._SpaceOps, "_standard_padding",
                        lambda self, b: padded.append(b) or original(self, b))
    rng = np.random.default_rng(41)
    below = ("no reduction can succeed: the counting bound n*r_i >= s_i fails in some block "
             "for n={}, below the stable rank {} of the space")
    row = ModuleSpace(Algebra((1,)), 1, 3)
    with pytest.raises(ReductionFailedError) as refused:
        hv_perturb(random_tuple(row, rng, 2), PerturbationParams(eps=0.1))
    assert str(refused.value) == below.format(2, 3)
    pair = ModuleSpace(Algebra((1,)), 1, 2)
    with pytest.raises(ReductionFailedError) as refused:
        bass_reduce(random_unimodular(pair, rng, 2), PerturbationParams(eps=0.1))
    assert str(refused.value) == below.format(1, 2)
    big = Algebra((1,)).matrix_algebra(2)
    dead = corner_space(Algebra((1,)), 2, big.zero(), big.element([np.diag([1.0, 0.0])]))
    not_full = ("corner has a zero row projection against a nonzero column "
                "projection; no unimodular tuple exists")
    for call in (lambda: hv_perturb(ModuleTuple((dead.zero(),)), PerturbationParams(eps=0.1)),
                 lambda: stable_rank._refuse_below_stable_rank(dead, 5)):
        with pytest.raises(ModuleNotFullError) as refused:
            call()
        assert str(refused.value) == not_full
    assert padded == []
    with pytest.raises(ModuleNotFullError) as refused:
        dead.standard_unimodular_tuple()
    assert str(refused.value) == not_full


@pytest.mark.parametrize("kind", sorted(DENSITY_CELLS))
def test_a_non_finite_density_cell_never_reaches_lapack(capfd, kind):
    # Draws near 1e200 overflow the Gram sums: the bracket's scan refuses its shifted
    # blocks, and the margins' scan refuses the Gram sums, before LAPACK sees either.
    space, k, _ = DENSITY_CELLS[kind]()
    draws = stable_rank.trial_draws(0, 5, k * stable_rank.draw_size(space.block_shapes))
    draws[0] *= 1e200
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError) as refused:
        space._unimodular_count(draws, k, 1e-9)
    assert str(refused.value) == algebra._NOT_FINITE
    assert capfd.readouterr().out == ""


def test_density_obstructed_case():
    space = ModuleSpace(Algebra((1,)), 1, 2)
    report = density_experiment(space, k=1, trials=200, seed=0)
    assert report.unimodular_fraction == 0.0
    assert report.exact_obstruction
    assert report.predicted_sr == 2


def test_density_below_rounding_on_an_obstructed_cell_is_a_domain_error():
    # Rounding noise passes tol=1e-30, but no 1-tuple of M_{1x3}(C) is unimodular.
    space = ModuleSpace(Algebra((1,)), 1, 3)
    with pytest.raises(DomainError, match="tol=1e-30"):
        density_experiment(space, k=1, trials=20, seed=0, tol=1e-30)
    with pytest.raises(ValueError, match="rank obstruction contradicts"):
        stable_rank.DensityReport(
            space=space.to_json_dict(), k=1, trials=2, seed=0, tol=1e-30,
            unimodular_fraction=0.5, predicted_sr=3, exact_obstruction=True,
        )


@pytest.mark.parametrize("fraction", [-0.1, 1.5, math.nan])
def test_density_report_fractions_lie_in_the_unit_interval(fraction):
    with pytest.raises(ValueError, match=r"unimodular_fraction must lie in \[0, 1\]"):
        stable_rank.DensityReport(
            space={}, k=1, trials=2, seed=0, tol=1e-9,
            unimodular_fraction=fraction, predicted_sr=1, exact_obstruction=False,
        )


def test_density_generic_case():
    space = ModuleSpace(Algebra((1,)), 1, 2)
    report = density_experiment(space, k=2, trials=1000, seed=7)
    assert report.unimodular_fraction == 1.0
    assert not report.exact_obstruction


def test_density_block_case():
    space = ModuleSpace(Algebra((2, 3)), 2, 3)
    report = density_experiment(space, k=2, trials=300, seed=11)
    assert report.unimodular_fraction == 1.0
    assert report.predicted_sr == 2


def test_density_reports_are_reproducible():
    space = ModuleSpace(Algebra((1, 2)), 2, 3)
    a = density_experiment(space, 2, 150, 99)
    b = density_experiment(space, 2, 150, 99)
    assert a == b
    assert a.to_json_dict() == b.to_json_dict()


def test_density_validates_arguments():
    space = scalar_space()
    with pytest.raises(ValueError):
        density_experiment(space, 0, 10, 0)
    with pytest.raises(ValueError):
        density_experiment(space, 1, 0, 0)


@pytest.mark.parametrize("field", ["k", "trials", "seed"])
@pytest.mark.parametrize("value", [2.5, float("nan"), True, "3", None])
def test_density_rejects_non_integer_counts_and_seeds(field, value):
    # seed=1.5 once ran seed 1 and reported 1.5, seed=True wrote "seed": true,
    # and a float k or trials reached numpy as a raw TypeError.
    args = {"k": 1, "trials": 5, "seed": 0, field: value}
    with pytest.raises(TypeError, match="expected an integer|cannot be interpreted as an integer"):
        density_experiment(scalar_space(), **args)


def test_density_takes_integer_counts_and_seeds_as_int():
    space = ModuleSpace(Algebra((1, 2)), 2, 3)
    report = density_experiment(space, np.int64(2), np.int32(150), np.uint64(99))
    assert report == density_experiment(space, 2, 150, 99)
    assert all(type(v) is int for v in (report.k, report.trials, report.seed))


def tolerance_entry_points(bad):
    space = scalar_space()
    unit_tuple = ModuleTuple(tuple(space.standard_unimodular_tuple()))
    u = normalize_tuple(unit_tuple)
    return [
        lambda: space.right_algebra_unit().is_invertible(bad),
        lambda: space.right_algebra_unit().inv_sqrt(bad),
        lambda: normalize_tuple(unit_tuple, bad),
        lambda: is_unimodular(unit_tuple, bad),
        lambda: gen_oracle(unit_tuple, bad),
        lambda: density_experiment(space, 1, 5, 0, tol=bad),
        lambda: hv_pad(unit_tuple, u, bad),
        lambda: PerturbationParams(eps=bad),
        lambda: PerturbationParams(eps=0.1, tol=bad),
        lambda: dual_witness(unit_tuple, bad),
    ]


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_every_tolerance_entry_point_rejects_bad_values(bad):
    for call in tolerance_entry_points(bad):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("flag", [True, np.True_])
def test_every_tolerance_entry_point_rejects_booleans(flag):
    # True once passed as 1.0: PerturbationParams(eps=True, tol=True) was
    # built, is_unimodular(t, True) called a unimodular 1-tuple not unimodular
    # and a density report read "tolerance": true.
    for call in tolerance_entry_points(flag):
        with pytest.raises(TypeError, match="not the boolean"):
            call()


def test_params_validation():
    with pytest.raises(ValueError):
        PerturbationParams(eps=0.0)
    with pytest.raises(ValueError):
        PerturbationParams(eps=0.1, tol=-1.0)
    # The reductions no longer retry, so the knob is gone rather than ignored.
    with pytest.raises(TypeError):
        PerturbationParams(eps=0.1, max_retries=3)


@pytest.mark.parametrize("field", ["seed"])
@pytest.mark.parametrize("value", [2.5, float("nan"), True, "3", None])
def test_params_reject_non_integer_counts_and_seeds(field, value):
    # A float count once reached range() as a raw TypeError, and True ran as 1.
    with pytest.raises(TypeError):
        PerturbationParams(eps=0.1, **{field: value})


def test_params_take_integer_counts_and_seeds_as_int():
    params = PerturbationParams(eps=0.1, seed=np.uint64(2**63))
    assert params.seed == 2**63
    assert type(params.seed) is int
