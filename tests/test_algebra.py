"""Blockwise arithmetic, norms and functional calculus of algebra elements."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstar_rank import (
    Algebra,
    DomainError,
    InvertibilityError,
    ShapeMismatchError,
)
from cstar_rank.algebra import _extreme_svals, _gate_norm, _shifted_polar

BASES = [(1,), (2,), (3,), (1, 2), (2, 3)]


def test_unit_blocks():
    assert np.array_equal(Algebra((1,)).unit().blocks[0], np.eye(1))
    assert np.array_equal(Algebra((2,)).unit().blocks[0], np.eye(2))
    u = Algebra((1, 2)).unit()
    assert np.array_equal(u.blocks[0], np.eye(1))
    assert np.array_equal(u.blocks[1], np.eye(2))


def test_construction_rejects_degenerate_algebras():
    with pytest.raises(ValueError):
        Algebra(())
    with pytest.raises(ValueError):
        Algebra((0,))
    with pytest.raises(ValueError):
        Algebra((2, -1))


def test_matrix_amplification_needs_a_positive_size():
    with pytest.raises(ValueError, match="matrix amplification needs n >= 1"):
        Algebra((1, 2)).matrix_algebra(0)


def test_element_shape_validation():
    alg = Algebra((2,))
    with pytest.raises(ShapeMismatchError):
        alg.element([np.eye(3)])
    with pytest.raises(ShapeMismatchError):
        alg.element([np.eye(2), np.eye(2)])


def test_adjoint_of_unit_and_unit_product():
    alg = Algebra((1, 2))
    u = alg.unit()
    rng = np.random.default_rng(0)
    a = alg.random_element(rng)
    assert (u.adjoint() - u).norm() == 0.0
    assert ((a * u) - a).norm() == 0.0
    assert ((u * a) - a).norm() == 0.0


def test_adjoint_is_exact_involution():
    rng = np.random.default_rng(1)
    for base in BASES:
        alg = Algebra(base)
        for _ in range(40):
            a = alg.random_element(rng)
            back = a.adjoint().adjoint()
            assert all(
                np.array_equal(x, y) for x, y in zip(a.blocks, back.blocks)
            )


def test_adjoint_reverses_products():
    # Both sides computed blockwise with raw numpy as the oracle.
    rng = np.random.default_rng(2)
    alg = Algebra((2, 3))
    for _ in range(50):
        a = alg.random_element(rng)
        b = alg.random_element(rng)
        lhs = (a * b).adjoint()
        for blk, ab, bb in zip(lhs.blocks, a.blocks, b.blocks):
            expected = bb.conj().T @ ab.conj().T
            assert np.linalg.norm(blk - expected) < 1e-12 * max(
                1.0, np.linalg.norm(expected)
            )


def test_norm_trivial_values():
    alg = Algebra((1, 2))
    assert alg.unit().norm() == 1.0
    assert alg.zero().norm() == 0.0


def test_cstar_identity():
    rng = np.random.default_rng(3)
    for base in BASES:
        alg = Algebra(base)
        for _ in range(100):
            a = alg.random_element(rng)
            # Independent route: largest singular value per raw block, squared.
            direct = max(
                np.linalg.svd(blk, compute_uv=False)[0] for blk in a.blocks
            ) ** 2
            assert abs((a.adjoint() * a).norm() - direct) <= 1e-10 * direct


def test_is_invertible_trivial():
    alg = Algebra((2,))
    assert alg.unit().is_invertible(1e-9)
    assert not alg.zero().is_invertible(1e-9)


def test_is_invertible_small_singular_value():
    alg = Algebra((2,))
    a = alg.element([np.diag([1.0, 1e-15])])
    # Oracle: the smallest singular value is 1e-15, far below 1e-9 * 1.
    assert np.linalg.svd(a.blocks[0], compute_uv=False)[-1] < 1e-9
    assert not a.is_invertible(1e-9)


def test_margin_is_relative_and_refuses_non_finite_values():
    alg = Algebra((1, 2))
    a = alg.element([np.array([[4.0]]), np.diag([2.0, 0.5])])
    assert a.margin() == 0.5 / 4.0
    assert type(a.margin()) is float  # reports and messages print it
    assert a.is_invertible(0.12) and not a.is_invertible(0.13)
    # Below norm 1 the margin is absolute: max(1, 0.5) is 1, not the norm.
    assert alg.element([np.array([[0.5]]), np.diag([0.5, 0.25])]).margin() == 0.25
    for bad in (np.inf, np.nan):
        b = alg.element([np.array([[1.0]]), np.diag([bad, 1.0])])
        with pytest.raises(DomainError, match="not finite"):
            b.margin()


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_norm_refuses_non_finite_entries(bad):
    # The norm goes through the same non-finite rule as the margin.
    a = Algebra((1, 2)).element([np.array([[bad]]), np.eye(2)])
    with pytest.raises(DomainError, match="not finite"):
        a.norm()


def test_huge_finite_singular_values_are_not_an_overflow():
    # The largest plus the smallest singular value overflows; each is finite.
    a = Algebra((1,)).element([[[1e308]]])
    assert a.norm() == 1e308
    assert a.margin() == 1.0
    tops, bottoms = _extreme_svals([np.full((1, 1), 1e308), np.full((1, 1), 1e308)])
    assert tops == bottoms == [1e308, 1e308]
    assert all(type(v) is float for v in tops + bottoms)
    for bad in (np.inf, np.nan):
        with pytest.raises(DomainError, match="not finite"):
            _extreme_svals([np.array([[1e308]]), np.array([[bad]])])


def test_singular_values_that_overflow_are_refused():
    # Four entries 1e308 give the singular value 2e308: the SVD of finite blocks returns
    # inf, and the extremes refuse it, so the norm and the margin give no number.
    a = Algebra((1, 2)).element([np.array([[1.0]]), np.full((2, 2), 1e308)])
    for call in (a.norm, a.margin, lambda: _extreme_svals(a.blocks)):
        with pytest.raises(DomainError, match="not finite"):
            call()


def test_shifted_polar_pairs_to_the_unit_under_the_non_finite_rule():
    # Per tall block Z = W |Z|: W (|Z| + 2) and W (|Z| + 2)^{-1} pair to the
    # unit, and the first has the singular values of Z shifted by 2.
    rng = np.random.default_rng(3)
    blocks = [rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)) for m, n in [(3, 2), (2, 2)]]
    heads, duals = _shifted_polar(blocks, 2.0)
    for z, c, w in zip(blocks, heads, duals):
        assert np.allclose(w.conj().T @ c, np.eye(z.shape[1]), rtol=0, atol=1e-14)
        assert np.allclose(np.linalg.svd(c, compute_uv=False), np.linalg.svd(z, compute_uv=False) + 2.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(DomainError, match="not finite"):
            _shifted_polar([np.array([[1.0], [bad]])], 1.0)


def _gate_blocks(kind, shapes, seed, exponent):
    """Complex blocks of one kind, scaled by ``10**exponent``."""
    rng = np.random.default_rng(seed)
    blocks = []
    for m, n in shapes:
        if kind == "1x1":
            m = n = 1
        g = rng.standard_normal((m, n, 2)) @ [1.0, 1j]
        if kind == "rank-1":
            g = np.outer(g[:, 0], rng.standard_normal((n, 2)) @ [1.0, 1j])
        blocks.append(g * 10.0**exponent)
    return blocks


def _moved(value, ulps):
    for _ in range(abs(ulps)):
        value = np.nextafter(value, np.inf if ulps > 0 else -np.inf)
    return float(value)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(["1x1", "rank-1", "full"]),
    st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
    st.floats(-175.0, 200.0),
    st.sampled_from(["norm", "frobenius", "above", "zero", "negative"]),
    st.integers(-2, 2),
)
def test_gate_norm_decides_every_comparison_as_the_svd(kind, shapes, seed, exponent, at, ulps):
    # On rank-1 blocks the computed Frobenius norm is often below the computed
    # largest singular value; the relative margin keeps such draws on the SVD.
    blocks = _gate_blocks(kind, shapes, seed, exponent)
    norm = max(_extreme_svals(blocks)[0])
    # Scaled by the norm, so that the sum of squares neither overflows nor underflows.
    frobenius = norm * float(np.linalg.norm(np.concatenate([b.ravel() for b in blocks]) / norm))
    above = frobenius * (1.0 + 1e-9)
    base = {"norm": norm, "frobenius": frobenius, "above": above, "zero": 0.0, "negative": -norm}[at]
    bound = _moved(base, ulps)
    value = _gate_norm(blocks, bound)
    assert (value > bound) == (norm > bound)
    assert (value < bound) == (norm < bound)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("bound", [-1.0, 0.0, 1.0, 1e300, np.inf])
def test_gate_norm_refuses_non_finite_entries(bad, bound):
    with pytest.raises(DomainError, match="not finite"):
        _gate_norm([np.eye(2), np.array([[bad, 0.0]])], bound)


def test_gate_norm_takes_the_frobenius_norm_well_below_the_bound():
    blocks = [np.array([[1.0, 2.0], [3.0, 4.0j]]), np.array([[1e-3]])]
    frobenius = float(np.sqrt(30.000001))
    assert _gate_norm(blocks, 2 * frobenius) == pytest.approx(frobenius, rel=1e-15)
    assert _gate_norm(blocks, frobenius) == max(_extreme_svals(blocks)[0])


def test_gate_norm_takes_the_svd_when_the_sum_of_squares_overflows():
    # Each square is finite, their sum is not.
    blocks = [np.array([[1e154]]), np.array([[1e154j]])]
    assert _gate_norm(blocks, 2e154) == 1e154


def test_gate_norm_of_zero_blocks_is_exactly_zero():
    assert _gate_norm([np.zeros((2, 3)), np.zeros((1, 1))], 0.0) == 0.0


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_repr_never_raises_on_non_finite_entries(bad):
    a = Algebra((1,)).element([[[bad]]])
    assert repr(a) == "<AlgebraElement over M_[1], norm=non-finite>"
    assert repr(2.0 * Algebra((1,)).unit()) == "<AlgebraElement over M_[1], norm=2>"


def test_is_invertible_rejects_bad_tol():
    with pytest.raises(ValueError):
        Algebra((1,)).unit().is_invertible(0.0)


def test_inverse_trivial():
    alg = Algebra((1, 2))
    u = alg.unit()
    assert (u.inverse() - u).norm() < 1e-14
    assert ((2.0 * u).inverse() - 0.5 * u).norm() < 1e-14


def test_inverse_roundtrip_and_two_sided():
    rng = np.random.default_rng(4)
    for base in BASES:
        alg = Algebra(base)
        unit = alg.unit()
        for _ in range(30):
            g = alg.random_element(rng)
            a = g + (2.0 * g.norm() + 1.0) * unit  # guaranteed well conditioned
            inv = a.inverse()
            assert (a * inv - unit).norm() < 1e-8
            assert (inv * a - unit).norm() < 1e-8
            assert (inv.inverse() - a).norm() < 1e-8 * a.norm()


def test_inverse_of_singular_raises():
    with pytest.raises(InvertibilityError):
        Algebra((2,)).zero().inverse()


def test_positive_part_trivial_cases():
    alg = Algebra((1,))
    u = alg.unit()
    assert (u.positive_part() - u).norm() == 0.0
    assert (-u).positive_part().norm() == 0.0
    alg2 = Algebra((2,))
    b = alg2.element([np.diag([2.0, -3.0])])
    assert np.allclose(b.positive_part().blocks[0], np.diag([2.0, 0.0]))


def test_positive_part_rejects_non_self_adjoint():
    alg = Algebra((2,))
    a = alg.element([np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(DomainError):
        a.positive_part()


def test_functional_calculus_decomposition():
    rng = np.random.default_rng(5)
    for base in BASES:
        alg = Algebra(base)
        for _ in range(40):
            g = alg.random_element(rng)
            b = (g + g.adjoint()) * 0.5
            pos = b.positive_part()
            neg = (-b).positive_part()
            scale = b.norm()
            assert (b - (pos - neg)).norm() <= 1e-10 * scale
            assert (pos * neg).norm() <= 1e-10 * scale
            assert pos.is_self_adjoint()
            assert min(np.linalg.eigvalsh((c + c.conj().T) / 2)[0] for c in pos.blocks) >= -1e-10 * scale


def test_spectral_mapping_of_positive_part():
    rng = np.random.default_rng(6)
    alg = Algebra((3, 2))
    for _ in range(40):
        g = alg.random_element(rng)
        b = (g + g.adjoint()) * 0.5
        pos = b.positive_part()
        for pb, bb in zip(pos.blocks, b.blocks):
            # Oracle: clip the raw eigenvalues of the input block.
            expected = np.clip(np.linalg.eigvalsh((bb + bb.conj().T) / 2), 0, None)
            got = np.linalg.eigvalsh((pb + pb.conj().T) / 2)
            assert np.max(np.abs(np.sort(expected) - np.sort(got))) <= 1e-10 * max(
                1.0, b.norm()
            )


def test_inv_sqrt_trivial_and_roundtrip():
    alg = Algebra((1, 2))
    u = alg.unit()
    assert (u.inv_sqrt() - u).norm() < 1e-12
    assert ((4.0 * u).inv_sqrt() - 0.5 * u).norm() < 1e-12
    rng = np.random.default_rng(7)
    for _ in range(30):
        g = alg.random_element(rng)
        a = g.adjoint() * g + u
        s = a.inv_sqrt()
        assert (s * a * s - u).norm() < 1e-8
        assert s.is_self_adjoint()


def test_inv_sqrt_rejects_non_positive():
    alg = Algebra((2,))
    with pytest.raises(DomainError):
        alg.element([np.diag([1.0, -1.0])]).inv_sqrt()
    with pytest.raises(DomainError):
        alg.zero().inv_sqrt()


def test_inv_sqrt_rejects_non_self_adjoint():
    a = Algebra((2,)).element([np.array([[2.0, 1.0], [0.0, 2.0]])])
    with pytest.raises(DomainError, match="inv_sqrt needs a self-adjoint element"):
        a.inv_sqrt()


def with_anti_hermitian_part(relative):
    """``diag(2, 1)`` plus an anti-Hermitian part of norm ``relative`` times its own: the
    self-adjointness residual ``||a - a*||`` is then about ``2 relative ||a||``."""
    return Algebra((2,)).element([np.diag([2.0, 1.0]) + 2.0 * relative * np.array([[0, 1], [-1, 0]])])


@pytest.mark.parametrize("call", ["positive_part", "inv_sqrt"])
def test_self_adjointness_is_judged_at_1e_10_relative(call):
    # SELF_ADJOINT_RTOL = 1e-10: a residual of 2e-6 relative is refused, one of 2e-12 is not.
    with pytest.raises(DomainError, match=f"{call} needs a self-adjoint element"):
        getattr(with_anti_hermitian_part(1e-6), call)()
    assert getattr(with_anti_hermitian_part(1e-12), call)().is_self_adjoint()


@pytest.mark.parametrize("other", [3, np.eye(2)])
@pytest.mark.parametrize("combine", [lambda a, b: a + b, lambda a, b: a - b])
def test_elements_combine_only_with_elements(combine, other):
    with pytest.raises(TypeError, match="^expected an AlgebraElement, got "):
        combine(Algebra((2,)).unit(), other)


def test_cross_algebra_operations_fail():
    a = Algebra((2,)).unit()
    b = Algebra((3,)).unit()
    with pytest.raises(ShapeMismatchError):
        a + b
    with pytest.raises(ShapeMismatchError):
        a * b


def test_scalar_operations():
    alg = Algebra((2,))
    u = alg.unit()
    assert ((2 * u) - (u * 2)).norm() == 0.0
    # Elements do not divide: u * (1/c) turns the zero entries NaN once 1/c overflows.
    with pytest.raises(TypeError):
        u / 4
    assert ((1j * u) * (1j * u) + u).norm() < 1e-15


def test_blocks_are_read_only():
    a = Algebra((2,)).unit()
    with pytest.raises(ValueError):
        a.blocks[0][0, 0] = 5.0
